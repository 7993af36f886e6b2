module I = Spr_util.Interval
module Rs = Spr_route.Route_state

(* Index of the claimed segment containing [col] within an hroute. *)
let rec seg_index segs ~last x i =
  if i > last then -1 else if I.contains segs.(i) x then i else seg_index segs ~last x (i + 1)

let hseg_index arch (hr : Rs.hroute) col =
  let segs = Spr_arch.Arch.hsegments arch ~channel:hr.Rs.h_channel ~track:hr.Rs.h_track in
  let i = seg_index segs ~last:hr.Rs.h_shi col hr.Rs.h_slo in
  if i < 0 then invalid_arg "Net_delay: column outside hroute" else i

let vseg_index arch (vr : Rs.vroute) channel =
  let segs = Spr_arch.Arch.vsegments arch ~col:vr.Rs.v_col ~vtrack:vr.Rs.v_vtrack in
  let i = seg_index segs ~last:vr.Rs.v_shi channel vr.Rs.v_slo in
  if i < 0 then invalid_arg "Net_delay: channel outside vroute" else i

type workspace = {
  tree : Rc_tree.t;
  mutable sink_nodes : int array;  (* per sink: its pin node in [tree] *)
  mutable hbase : int array;  (* per channel: node of the net's first segment there *)
}

let create_workspace () = { tree = Rc_tree.create (); sink_nodes = [||]; hbase = [||] }

(* One node per claimed segment of a run, chained with antifuse edges
   that also carry the wire resistance of the two halves. Returns the
   run's first node; the run's nodes are contiguous from there. *)
let add_chain dm tree (segs : I.t array) ~slo ~shi ~c_seg ~r_seg =
  let half_fuse = dm.Delay_model.c_antifuse /. 2.0 in
  let first = Rc_tree.n_nodes tree in
  for s = slo to shi do
    let len = float_of_int (I.length segs.(s)) in
    let n = Rc_tree.add_node tree ~cap:(c_seg *. len) in
    if s > slo then begin
      let prev = n - 1 in
      let len_prev = float_of_int (I.length segs.(s - 1)) in
      let res = dm.Delay_model.r_antifuse +. (r_seg *. (len +. len_prev) /. 2.0) in
      Rc_tree.add_edge tree prev n ~res;
      Rc_tree.add_cap tree ~node:prev ~cap:half_fuse;
      Rc_tree.add_cap tree ~node:n ~cap:half_fuse
    end
  done;
  first

let rec add_hroutes dm arch ws = function
  | [] -> ()
  | (ch, (hr : Rs.hroute)) :: rest ->
    let segs = Spr_arch.Arch.hsegments arch ~channel:ch ~track:hr.Rs.h_track in
    ws.hbase.(ch) <-
      add_chain dm ws.tree segs ~slo:hr.Rs.h_slo ~shi:hr.Rs.h_shi ~c_seg:dm.Delay_model.c_hseg
        ~r_seg:dm.Delay_model.r_hseg;
    add_hroutes dm arch ws rest

(* Node of the segment of [ch]'s run [hr] under column [col]. *)
let hnode arch ws ~ch (hr : Rs.hroute) col = ws.hbase.(ch) + (hseg_index arch hr col - hr.Rs.h_slo)

(* Cross antifuses tying each channel's chain to the spine. *)
let rec add_taps dm arch ws (vr : Rs.vroute) ~vbase = function
  | [] -> ()
  | (ch, hr) :: rest ->
    let half_fuse = dm.Delay_model.c_antifuse /. 2.0 in
    let v = vbase + (vseg_index arch vr ch - vr.Rs.v_slo) in
    let h = hnode arch ws ~ch hr vr.Rs.v_col in
    Rc_tree.add_edge ws.tree v h ~res:dm.Delay_model.r_antifuse;
    Rc_tree.add_cap ws.tree ~node:v ~cap:half_fuse;
    Rc_tree.add_cap ws.tree ~node:h ~cap:half_fuse;
    add_taps dm arch ws vr ~vbase rest

let rec hroute_in ch = function
  | [] -> invalid_arg "Net_delay: pin in channel without hroute"
  | (c, hr) :: rest -> if c = ch then hr else hroute_in ch rest

let attach_pin dm arch ws hroutes ~cap ~extra_res ch col =
  let half_fuse = dm.Delay_model.c_antifuse /. 2.0 in
  let h = hnode arch ws ~ch (hroute_in ch hroutes) col in
  let n = Rc_tree.add_node ws.tree ~cap in
  Rc_tree.add_edge ws.tree n h ~res:(dm.Delay_model.r_antifuse +. extra_res);
  Rc_tree.add_cap ws.tree ~node:n ~cap:half_fuse;
  Rc_tree.add_cap ws.tree ~node:h ~cap:half_fuse;
  n

(* Build the net's RC tree into the workspace, in a fixed order: the
   horizontal runs (in the net's hroute order), the spine and its taps,
   the driver pin, then the sink pins. Returns the root (driver pin)
   node, or -1 when the net is not fully embedded. *)
let build_into dm st net ws =
  if not (Rs.is_fully_routed st net) then -1
  else begin
    let arch = Rs.arch st in
    let place = Rs.place st in
    let nl = Rs.netlist st in
    let tree = ws.tree in
    Rc_tree.clear tree;
    if Array.length ws.hbase < arch.Spr_arch.Arch.n_channels then
      ws.hbase <- Array.make arch.Spr_arch.Arch.n_channels 0;
    let hroutes = Rs.h_routes st net in
    add_hroutes dm arch ws hroutes;
    (match Rs.global_route st net with
    | None -> ()
    | Some vr ->
      let segs = Spr_arch.Arch.vsegments arch ~col:vr.Rs.v_col ~vtrack:vr.Rs.v_vtrack in
      let vbase =
        add_chain dm tree segs ~slo:vr.Rs.v_slo ~shi:vr.Rs.v_shi ~c_seg:dm.Delay_model.c_vseg
          ~r_seg:dm.Delay_model.r_vseg
      in
      add_taps dm arch ws vr ~vbase hroutes);
    let netrec = Spr_netlist.Netlist.net nl net in
    let driver = netrec.Spr_netlist.Netlist.driver in
    let out_pin = (Spr_netlist.Netlist.cell nl driver).Spr_netlist.Netlist.n_inputs in
    let root =
      attach_pin dm arch ws hroutes ~cap:0.0 ~extra_res:dm.Delay_model.r_driver
        (Spr_layout.Placement.pin_channel place ~cell:driver ~pin:out_pin)
        (Spr_layout.Placement.pin_col place ~cell:driver ~pin:out_pin)
    in
    let sinks = netrec.Spr_netlist.Netlist.sinks in
    let n_sinks = Array.length sinks in
    if Array.length ws.sink_nodes < n_sinks then ws.sink_nodes <- Array.make n_sinks 0;
    for i = 0 to n_sinks - 1 do
      let cell, pin = sinks.(i) in
      ws.sink_nodes.(i) <-
        attach_pin dm arch ws hroutes ~cap:dm.Delay_model.c_pin ~extra_res:0.0
          (Spr_layout.Placement.pin_channel place ~cell ~pin)
          (Spr_layout.Placement.pin_col place ~cell ~pin)
    done;
    root
  end

let build_rc_tree dm st net =
  let ws = create_workspace () in
  let root = build_into dm st net ws in
  if root < 0 then None
  else begin
    let n_sinks =
      Array.length (Spr_netlist.Netlist.net (Rs.netlist st) net).Spr_netlist.Netlist.sinks
    in
    Some (ws.tree, root, Array.sub ws.sink_nodes 0 n_sinks)
  end

let routed_sink_delays dm st net =
  match build_rc_tree dm st net with
  | None -> None
  | Some (tree, root, sink_nodes) ->
    let delays = Rc_tree.elmore tree ~root in
    Some (Array.map (fun n -> delays.(n)) sink_nodes)

(* Crude pre-embedding estimate: relate the net's spatial extent to the
   probable wire and antifuse load. Accuracy is secondary; what matters
   is growing monotonically with span and expected antifuse count. *)
let rec mem_channel ch = function [] -> false | (c, _) :: rest -> c = ch || mem_channel ch rest

(* Each channel counts at its last pin. *)
let rec count_distinct_channels = function
  | [] -> 0
  | (ch, _) :: rest -> (if mem_channel ch rest then 0 else 1) + count_distinct_channels rest

let estimate dm st net =
  let g = Spr_layout.Placement.geom (Rs.place st) net in
  match g.g_pins with
  | [] | [ _ ] -> 0.0
  | pins ->
    let arch = Rs.arch st in
    let col_span = float_of_int (g.g_col_hi - g.g_col_lo + 1) in
    let chan_span = float_of_int (g.g_ch_hi - g.g_ch_lo) in
    let n_chans = float_of_int (count_distinct_channels pins) in
    let n_sinks = float_of_int (List.length pins - 1) in
    let avg_seg = Spr_arch.Arch.avg_hseg_length arch in
    let est_segs_per_chan = Float.max 1.0 (Float.round (col_span /. avg_seg)) in
    let est_antifuses =
      (n_chans *. (est_segs_per_chan -. 1.0))  (* horizontal antifuses *)
      +. (2.0 *. (n_sinks +. 1.0))  (* cross antifuses at pins *)
      +. (2.0 *. Float.min chan_span 1.0 *. n_chans)  (* spine taps *)
    in
    let total_c =
      (dm.Delay_model.c_hseg *. col_span *. n_chans)
      +. (dm.Delay_model.c_vseg *. chan_span)
      +. (dm.Delay_model.c_pin *. n_sinks)
      +. (dm.Delay_model.c_antifuse *. est_antifuses)
    in
    let path_r =
      (dm.Delay_model.r_hseg *. col_span)
      +. (dm.Delay_model.r_vseg *. chan_span)
      +. (dm.Delay_model.r_antifuse *. (est_segs_per_chan +. 3.0))
    in
    ((dm.Delay_model.r_driver +. (0.5 *. path_r)) *. total_c)

let sink_delays dm st net =
  let nl = Rs.netlist st in
  let n_sinks = Array.length (Spr_netlist.Netlist.net nl net).Spr_netlist.Netlist.sinks in
  if n_sinks = 0 then [||]
  else
    match routed_sink_delays dm st net with
    | Some d -> d
    | None -> Array.make n_sinks (estimate dm st net)

let sink_delays_into dm st ws net ~out =
  let nl = Rs.netlist st in
  let n_sinks = Array.length (Spr_netlist.Netlist.net nl net).Spr_netlist.Netlist.sinks in
  if n_sinks > 0 then begin
    let root = build_into dm st net ws in
    if root >= 0 then Rc_tree.elmore_into ws.tree ~root ~nodes:ws.sink_nodes ~n:n_sinks ~out
    else Array.fill out 0 n_sinks (estimate dm st net)
  end;
  n_sinks
