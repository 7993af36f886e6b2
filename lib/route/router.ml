type config = {
  spine_margin : int;
  spine_candidates : int;
  antifuse_weight : float;
  retry_cap : int;
  criticality : (int -> float) option;
}

let default_config =
  {
    spine_margin = 2;
    spine_candidates = 24;
    antifuse_weight = 3.0;
    retry_cap = 64;
    criticality = None;
  }

type counters = {
  mutable c_global_attempts : int;
  mutable c_global_routed : int;
  mutable c_detail_attempts : int;
  mutable c_detail_routed : int;
}

let fresh_counters () =
  { c_global_attempts = 0; c_global_routed = 0; c_detail_attempts = 0; c_detail_routed = 0 }

let rip_up_cell st j cell =
  let nl = Route_state.netlist st in
  let nets = Spr_netlist.Netlist.nets_of_cell nl cell in
  List.iter (fun net -> Route_state.rip_up st j net) nets;
  nets

let take n xs =
  let rec loop acc n = function
    | [] -> List.rev acc
    | _ when n = 0 -> List.rev acc
    | x :: rest -> loop (x :: acc) (n - 1) rest
  in
  loop [] n xs

(* Criticality ordering: (criticality, estimated length) descending, net
   id as the deterministic tie-break. The length-only order needs no
   sorting — the dense queues already enumerate that way. A sweep under
   a criticality order re-orders its whole filtered snapshot of [n] nets
   (in lists; that path is not the annealer's), truncates it to the
   retry cap and returns the new length. *)
let reorder_snapshot config crit st ~len n =
  let buf = Route_state.snapshot_buffer st in
  let scored = List.init n (fun i -> (crit buf.(i), len buf.(i), buf.(i))) in
  let ordered =
    take config.retry_cap
      (List.sort (fun (ca, la, na) (cb, lb, nb) -> compare (cb, lb, nb) (ca, la, na)) scored)
  in
  List.iteri (fun i (_, _, net) -> buf.(i) <- net) ordered;
  List.length ordered

let detail_demand_length st ~channel net =
  if Route_state.has_demand st net ~channel then
    Spr_util.Interval.length (Route_state.demand_span st net ~channel)
  else 0

let reroute_global ?(config = default_config) ?counters st j =
  (* U_G arrives "sorted based on the estimated length of its contents
     ... giving priority to the longer unroutable nets" (paper §3.3). *)
  let n =
    match config.criticality with
    | None -> Route_state.snapshot_ug st ~cap:config.retry_cap
    | Some crit ->
      reorder_snapshot config crit st
        ~len:(Spr_layout.Placement.half_perimeter (Route_state.place st))
        (Route_state.snapshot_ug st ~cap:max_int)
  in
  let snap = Route_state.snapshot_buffer st in
  (* Optional arguments wrapped once per sweep, not once per attempt. *)
  let margin = Some config.spine_margin and max_candidates = Some config.spine_candidates in
  let changed = ref [] in
  for i = 0 to n - 1 do
    let net = snap.(i) in
    (match counters with
    | Some c -> c.c_global_attempts <- c.c_global_attempts + 1
    | None -> ());
    if Global_router.attempt ?margin ?max_candidates st j net then begin
      (match counters with
      | Some c -> c.c_global_routed <- c.c_global_routed + 1
      | None -> ());
      changed := net :: !changed
    end
    else Route_state.note_global_failure st net
  done;
  List.sort_uniq compare !changed

let reroute_detail ?(config = default_config) ?counters st j =
  let arch = Route_state.arch st in
  let snap = Route_state.snapshot_buffer st in
  let antifuse_weight = Some config.antifuse_weight in
  let changed = ref [] in
  (* Each channel's queue, longest span first. *)
  for channel = 0 to arch.Spr_arch.Arch.n_channels - 1 do
    let n =
      match config.criticality with
      | None -> Route_state.snapshot_ud st ~channel ~cap:config.retry_cap
      | Some crit ->
        reorder_snapshot config crit st ~len:(detail_demand_length st ~channel)
          (Route_state.snapshot_ud st ~channel ~cap:max_int)
    in
    for i = 0 to n - 1 do
      let net = snap.(i) in
      (match counters with
      | Some c -> c.c_detail_attempts <- c.c_detail_attempts + 1
      | None -> ());
      if Detail_router.attempt ?antifuse_weight st j ~net ~channel then begin
        (match counters with
        | Some c -> c.c_detail_routed <- c.c_detail_routed + 1
        | None -> ());
        changed := net :: !changed
      end
      else Route_state.note_detail_failure st net ~channel
    done
  done;
  List.sort_uniq compare !changed

let reroute ?(config = default_config) ?counters st j =
  let g = reroute_global ~config ?counters st j in
  let d = reroute_detail ~config ?counters st j in
  List.sort_uniq compare (List.rev_append g d)

let route_all ?(config = default_config) ?(passes = 3) st =
  let config = { config with retry_cap = max_int } in
  let j = Spr_util.Journal.create () in
  let rec loop p =
    if p > 0 && not (Route_state.fully_routed st) then begin
      ignore (reroute ~config st j : int list);
      loop (p - 1)
    end
  in
  loop passes;
  Spr_util.Journal.commit j
