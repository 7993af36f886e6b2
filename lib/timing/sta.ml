module Rs = Spr_route.Route_state
module Nl = Spr_netlist.Netlist
module J = Spr_util.Journal

type t = {
  dm : Delay_model.t;
  st : Rs.t;
  nl : Nl.t;
  lev : Spr_netlist.Levelize.t;
  arr_out : float array;
  net_delays : float array array;  (* per net, per sink index *)
  sink_idx : int array array;  (* cell -> input pin -> index into feeding net's sinks *)
  sink_cells : int array;  (* cells whose inputs end paths *)
  prop_fanout : int array array;  (* cell -> fanout cells that propagate *)
  net_prop_sinks : int array array;  (* net -> sink cells that propagate, deduped *)
  frontier : int Spr_util.Pqueue.t;
  seen : int array;  (* generation stamps *)
  mutable generation : int;
  source : bool array;  (* per cell: a timing source *)
  intrinsic_of : float array;  (* per cell: its intrinsic delay *)
  scratch : float array;  (* reused across moves for delay recomputation *)
  acc : float array;  (* one cell: the arrival a [load_*] function computed *)
  rc : Net_delay.workspace;  (* reused across moves for RC-tree evaluation *)
  mutable crit : float;  (* memoized critical delay *)
  mutable crit_valid : bool;
}

let eps = 1e-12

let delay_model t = t.dm

let is_source nl c =
  let cell = Nl.cell nl c in
  Spr_netlist.Cell_kind.is_timing_source cell.Nl.kind || cell.Nl.n_inputs = 0

(* The hot paths hand arrivals over in [t.acc.(0)] rather than as return
   values, and loop rather than fold: a returned or closed-over float is
   boxed on every call. *)
let load_arrival_in t c =
  let ins = Nl.in_nets t.nl c in
  let idx = t.sink_idx.(c) in
  let worst = ref 0.0 in
  for pin = 0 to Array.length ins - 1 do
    let net = ins.(pin) in
    let a = t.arr_out.((Nl.net t.nl net).Nl.driver) +. t.net_delays.(net).(idx.(pin)) in
    if a > !worst then worst := a
  done;
  t.acc.(0) <- !worst

let arrival_in t c =
  load_arrival_in t c;
  t.acc.(0)

let load_arr_out t c =
  if t.source.(c) then t.acc.(0) <- t.intrinsic_of.(c)
  else begin
    load_arrival_in t c;
    t.acc.(0) <- t.acc.(0) +. t.intrinsic_of.(c)
  end

let full_update t =
  for net = 0 to Nl.n_nets t.nl - 1 do
    t.net_delays.(net) <- Net_delay.sink_delays t.dm t.st net
  done;
  Array.iter
    (fun c ->
      if Spr_netlist.Cell_kind.has_output (Nl.cell t.nl c).Nl.kind then begin
        load_arr_out t c;
        t.arr_out.(c) <- t.acc.(0)
      end)
    t.lev.Spr_netlist.Levelize.order;
  t.crit_valid <- false

let create dm st =
  let nl = Rs.netlist st in
  let lev =
    match Spr_netlist.Levelize.run nl with
    | Ok l -> l
    | Error e -> invalid_arg ("Sta.create: " ^ e)
  in
  let n = Nl.n_cells nl in
  let sink_idx =
    Array.init n (fun c ->
        let ins = Nl.in_nets nl c in
        Array.mapi
          (fun pin net ->
            let sinks = (Nl.net nl net).Nl.sinks in
            let rec find i =
              if i >= Array.length sinks then invalid_arg "Sta.create: sink index missing"
              else if sinks.(i) = (c, pin) then i
              else find (i + 1)
            in
            find 0)
          ins)
  in
  let sink_cells =
    Array.of_seq
      (Seq.filter_map
         (fun c ->
           if Spr_netlist.Cell_kind.is_timing_sink (Nl.cell nl c).Nl.kind then Some c else None)
         (Seq.init n (fun c -> c)))
  in
  let propagates c =
    (not (is_source nl c)) && Spr_netlist.Cell_kind.has_output (Nl.cell nl c).Nl.kind
  in
  let net_prop_sinks =
    Array.init (Nl.n_nets nl) (fun net ->
        let sinks = (Nl.net nl net).Nl.sinks in
        Array.of_list
          (List.sort_uniq compare
             (Array.to_list
                (Array.of_seq
                   (Seq.filter_map
                      (fun (c, _) -> if propagates c then Some c else None)
                      (Array.to_seq sinks))))))
  in
  let prop_fanout =
    Array.init n (fun c ->
        match Nl.out_net nl c with
        | None -> [||]
        | Some net -> net_prop_sinks.(net))
  in
  let max_sinks = ref 0 in
  for net = 0 to Nl.n_nets nl - 1 do
    max_sinks := max !max_sinks (Array.length (Nl.net nl net).Nl.sinks)
  done;
  let t =
    {
      dm;
      st;
      nl;
      lev;
      arr_out = Array.make n 0.0;
      net_delays = Array.init (Nl.n_nets nl) (fun _ -> [||]);
      sink_idx;
      sink_cells;
      prop_fanout;
      net_prop_sinks;
      frontier = Spr_util.Pqueue.create ();
      seen = Array.make n (-1);
      generation = 0;
      source = Array.init n (is_source nl);
      intrinsic_of = Array.init n (fun c -> Delay_model.intrinsic dm (Nl.cell nl c).Nl.kind);
      scratch = Array.make (max 1 !max_sinks) 0.0;
      acc = [| 0.0 |];
      rc = Net_delay.create_workspace ();
      crit = 0.0;
      crit_valid = false;
    }
  in
  full_update t;
  t

(* The critical delay is pure in [arr_out]/[net_delays]; both only
   change through [invalidate] (and its journal undos) and
   [full_update], all of which drop the memo, so the cached scan is
   always the scan the state would produce. *)
let critical_delay t =
  if not t.crit_valid then begin
    let crit = ref 0.0 in
    for i = 0 to Array.length t.sink_cells - 1 do
      load_arrival_in t t.sink_cells.(i);
      crit := Float.max !crit t.acc.(0)
    done;
    t.crit <- !crit;
    t.crit_valid <- true
  end;
  t.crit

let arrival_out t c = t.arr_out.(c)

(* Frontier propagation: affected cells are processed in minimum-level
   order; a cell whose output arrival changes puts its combinational
   fanouts on the frontier (boundary sinks have no stored state — the
   critical delay reads their inputs directly). *)
let invalidate t j nets =
  t.generation <- t.generation + 1;
  let gen = t.generation in
  let push c =
    if t.seen.(c) <> gen then begin
      t.seen.(c) <- gen;
      Spr_util.Pqueue.add t.frontier t.lev.Spr_netlist.Levelize.levels.(c) c
    end
  in
  List.iter
    (fun net ->
      let old = t.net_delays.(net) in
      (* Recompute into the shared scratch buffer; a fresh array is only
         materialized when the delays actually changed. *)
      let n = Net_delay.sink_delays_into t.dm t.st t.rc net ~out:t.scratch in
      let changed =
        Array.length old <> n
        ||
        let rec diff i =
          i < n && (Float.abs (old.(i) -. t.scratch.(i)) > eps || diff (i + 1))
        in
        diff 0
      in
      if changed then begin
        t.net_delays.(net) <- Array.sub t.scratch 0 n;
        t.crit_valid <- false;
        J.record j (fun () ->
            t.net_delays.(net) <- old;
            t.crit_valid <- false);
        Array.iter push t.net_prop_sinks.(net)
      end)
    nets;
  while not (Spr_util.Pqueue.is_empty t.frontier) do
    let c = Spr_util.Pqueue.take_min t.frontier in
    load_arr_out t c;
    let fresh = t.acc.(0) in
    let old = t.arr_out.(c) in
    if Float.abs (fresh -. old) > eps then begin
      t.arr_out.(c) <- fresh;
      t.crit_valid <- false;
      J.record j (fun () ->
          t.arr_out.(c) <- old;
          t.crit_valid <- false);
      Array.iter push t.prop_fanout.(c)
    end
  done

(* Walk backward along argmax inputs until a source. The starting sink
   may itself be a flip-flop (both boundary roles); its input side must
   still be traced. *)
let path_to t sink =
  let rec back ?(first = false) c acc =
    let acc = c :: acc in
    if (Nl.cell t.nl c).Nl.n_inputs = 0 || ((not first) && is_source t.nl c) then acc
    else begin
      let ins = Nl.in_nets t.nl c in
      let best = ref (-1) and best_a = ref neg_infinity in
      Array.iteri
        (fun pin net ->
          let d = (Nl.net t.nl net).Nl.driver in
          let a = t.arr_out.(d) +. t.net_delays.(net).(t.sink_idx.(c).(pin)) in
          if a > !best_a then begin
            best_a := a;
            best := d
          end)
        ins;
      if !best = -1 then acc else back !best acc
    end
  in
  back ~first:true sink []

let timing_sinks t = Array.copy t.sink_cells

let critical_path t =
  let worst_sink = ref (-1) and worst = ref neg_infinity in
  Array.iter
    (fun c ->
      let a = arrival_in t c in
      if a > !worst then begin
        worst := a;
        worst_sink := c
      end)
    t.sink_cells;
  if !worst_sink = -1 then [] else path_to t !worst_sink
