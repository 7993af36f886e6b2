module Dm = Spr_timing.Delay_model
module Rc = Spr_timing.Rc_tree
module Nd = Spr_timing.Net_delay
module Sta = Spr_timing.Sta
module Rs = Spr_route.Route_state
module Router = Spr_route.Router
module P = Spr_layout.Placement
module Arch = Spr_arch.Arch
module Nl = Spr_netlist.Netlist
module Gen = Spr_netlist.Generator
module Rng = Spr_util.Rng
module J = Spr_util.Journal

let qtest = QCheck_alcotest.to_alcotest

(* --- Delay model --- *)

let test_intrinsic () =
  let dm = Dm.default in
  Alcotest.(check (float 1e-9)) "comb" dm.Dm.t_comb (Dm.intrinsic dm Spr_netlist.Cell_kind.Comb);
  Alcotest.(check (float 1e-9)) "seq" dm.Dm.t_seq (Dm.intrinsic dm Spr_netlist.Cell_kind.Seq);
  Alcotest.(check (float 1e-9)) "input" dm.Dm.t_io (Dm.intrinsic dm Spr_netlist.Cell_kind.Input);
  Alcotest.(check (float 1e-9)) "output" dm.Dm.t_io (Dm.intrinsic dm Spr_netlist.Cell_kind.Output)

(* --- RC tree / Elmore --- *)

let test_elmore_two_node () =
  (* root --R--> leaf(C): delay = R*C *)
  let t = Rc.create () in
  let root = Rc.add_node t ~cap:0.0 in
  let leaf = Rc.add_node t ~cap:2.0 in
  Rc.add_edge t root leaf ~res:3.0;
  let d = Rc.elmore t ~root in
  Alcotest.(check (float 1e-9)) "root delay 0" 0.0 d.(root);
  Alcotest.(check (float 1e-9)) "leaf delay RC" 6.0 d.(leaf)

let test_elmore_chain () =
  (* root -R1- a(C1) -R2- b(C2): d(a) = R1*(C1+C2), d(b) = d(a) + R2*C2 *)
  let t = Rc.create () in
  let root = Rc.add_node t ~cap:0.0 in
  let a = Rc.add_node t ~cap:1.0 in
  let b = Rc.add_node t ~cap:4.0 in
  Rc.add_edge t root a ~res:2.0;
  Rc.add_edge t a b ~res:3.0;
  let d = Rc.elmore t ~root in
  Alcotest.(check (float 1e-9)) "a" (2.0 *. 5.0) d.(a);
  Alcotest.(check (float 1e-9)) "b" ((2.0 *. 5.0) +. (3.0 *. 4.0)) d.(b)

let test_elmore_star () =
  (* root branches to two leaves; each branch sees only its own cap
     downstream of its own resistor, plus both caps through the shared
     (here zero) path. *)
  let t = Rc.create () in
  let root = Rc.add_node t ~cap:0.0 in
  let l1 = Rc.add_node t ~cap:1.0 in
  let l2 = Rc.add_node t ~cap:2.0 in
  Rc.add_edge t root l1 ~res:5.0;
  Rc.add_edge t root l2 ~res:7.0;
  let d = Rc.elmore t ~root in
  Alcotest.(check (float 1e-9)) "leaf1" 5.0 d.(l1);
  Alcotest.(check (float 1e-9)) "leaf2" 14.0 d.(l2)

let test_elmore_root_choice_changes_delays () =
  let t = Rc.create () in
  let a = Rc.add_node t ~cap:1.0 in
  let b = Rc.add_node t ~cap:1.0 in
  let c = Rc.add_node t ~cap:1.0 in
  Rc.add_edge t a b ~res:1.0;
  Rc.add_edge t b c ~res:1.0;
  let da = Rc.elmore t ~root:a in
  let dc = Rc.elmore t ~root:c in
  Alcotest.(check (float 1e-9)) "symmetric chain" da.(c) dc.(a)

let test_elmore_add_cap () =
  let t = Rc.create () in
  let root = Rc.add_node t ~cap:0.0 in
  let leaf = Rc.add_node t ~cap:1.0 in
  Rc.add_edge t root leaf ~res:2.0;
  Rc.add_cap t ~node:leaf ~cap:1.5;
  let d = Rc.elmore t ~root in
  Alcotest.(check (float 1e-9)) "caps accumulate" 5.0 d.(leaf)

let test_elmore_rejects_non_tree () =
  let t = Rc.create () in
  let a = Rc.add_node t ~cap:1.0 in
  let b = Rc.add_node t ~cap:1.0 in
  let c = Rc.add_node t ~cap:1.0 in
  Rc.add_edge t a b ~res:1.0;
  Rc.add_edge t b c ~res:1.0;
  Rc.add_edge t c a ~res:1.0;
  Alcotest.check_raises "cycle rejected" (Invalid_argument "Rc_tree.elmore: not a tree")
    (fun () -> ignore (Rc.elmore t ~root:a))

let test_elmore_rejects_disconnected () =
  let t = Rc.create () in
  let a = Rc.add_node t ~cap:1.0 in
  let b = Rc.add_node t ~cap:1.0 in
  let c = Rc.add_node t ~cap:1.0 in
  let d = Rc.add_node t ~cap:1.0 in
  Rc.add_edge t a b ~res:1.0;
  Rc.add_edge t c d ~res:1.0;
  (* 4 nodes, 2 edges: not a tree *)
  Alcotest.check_raises "forest rejected" (Invalid_argument "Rc_tree.elmore: not a tree")
    (fun () -> ignore (Rc.elmore t ~root:a))

let test_elmore_monotone_along_path =
  QCheck.Test.make ~name:"elmore delay grows along any root path" ~count:100
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, n) ->
      (* random tree: node i>0 attaches to a random earlier node *)
      let rng = Rng.create seed in
      let t = Rc.create () in
      let _ = Rc.add_node t ~cap:(Rng.float rng 2.0) in
      let parent = Array.make n 0 in
      for i = 1 to n - 1 do
        let p = Rng.int rng i in
        let node = Rc.add_node t ~cap:(Rng.float rng 2.0) in
        parent.(i) <- p;
        Rc.add_edge t p node ~res:(0.1 +. Rng.float rng 3.0)
      done;
      let d = Rc.elmore t ~root:0 in
      let ok = ref true in
      for i = 1 to n - 1 do
        if d.(i) < d.(parent.(i)) then ok := false
      done;
      !ok)

(* Reference Elmore evaluation as the allocating implementation did it:
   cons-list adjacency (newest edge first), BFS orientation, subtree
   sums in reverse BFS order. Any change to the visiting or summation
   order shows up as a bit difference against it. *)
let reference_elmore caps edges ~root =
  let n = Array.length caps in
  let adj = Array.make n [] in
  List.iter
    (fun (a, b, res) ->
      adj.(a) <- (b, res) :: adj.(a);
      adj.(b) <- (a, res) :: adj.(b))
    edges;
  let parent = Array.make n (-1) and parent_res = Array.make n 0.0 in
  let order = Array.make n 0 and visited = Array.make n false in
  order.(0) <- root;
  visited.(root) <- true;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    List.iter
      (fun (v, res) ->
        if not visited.(v) then begin
          visited.(v) <- true;
          parent.(v) <- u;
          parent_res.(v) <- res;
          order.(!tail) <- v;
          incr tail
        end)
      adj.(u)
  done;
  let sub = Array.copy caps in
  for i = n - 1 downto 1 do
    let v = order.(i) in
    sub.(parent.(v)) <- sub.(parent.(v)) +. sub.(v)
  done;
  let delay = Array.make n 0.0 in
  for i = 1 to n - 1 do
    let v = order.(i) in
    delay.(v) <- delay.(parent.(v)) +. (parent_res.(v) *. sub.(v))
  done;
  delay

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One tree reused across random trees of growing and shrinking sizes
   (the first size past the initial capacity forces a grow): every
   evaluation equals the reference bit for bit. *)
let test_reused_tree_matches_reference =
  QCheck.Test.make ~name:"reused Rc_tree elmore_into equals the reference bit for bit"
    ~count:100
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 8) (int_range 1 40)))
    (fun (seed, sizes) ->
      let rng = Rng.create seed in
      let t = Rc.create () in
      List.for_all
        (fun n ->
          Rc.clear t;
          let caps = Array.init n (fun _ -> Rng.float rng 2.0) in
          Array.iter (fun cap -> ignore (Rc.add_node t ~cap : int)) caps;
          let edges =
            List.init (n - 1) (fun i ->
                (Rng.int rng (i + 1), i + 1, 0.1 +. Rng.float rng 3.0))
          in
          List.iter (fun (a, b, res) -> Rc.add_edge t a b ~res) edges;
          let root = Rng.int rng n in
          let nodes = Array.init n (fun i -> i) in
          let out = Array.make n nan in
          Rc.elmore_into t ~root ~nodes ~n ~out;
          let expect = reference_elmore caps edges ~root in
          Array.for_all2 same_bits out expect)
        sizes)

(* --- Net delay --- *)

let make_routed ?(n_cells = 80) ?(seed = 5) ?(tracks = 24) () =
  let nl = Gen.generate (Gen.default ~n_cells) ~seed in
  let arch = Arch.size_for ~tracks nl in
  let place = P.create_exn arch nl ~rng:(Rng.create (seed + 1)) in
  let st = Rs.create place in
  Router.route_all st;
  (st, nl)

(* One workspace reused across every net of random routed states, in a
   random order (so it sees nets of different sizes and grows on the
   way), against a fresh workspace per net: the delays agree bit for
   bit, and so do unembedded nets' estimates. *)
let test_workspace_matches_fresh =
  QCheck.Test.make ~name:"reused Net_delay workspace equals a fresh one bit for bit" ~count:8
    QCheck.small_int (fun seed ->
      let st, nl =
        make_routed ~n_cells:60 ~seed:(1 + (seed mod 13)) ~tracks:(14 + (seed mod 8)) ()
      in
      let dm = Dm.default in
      let ws = Nd.create_workspace () in
      let nets = Array.init (Nl.n_nets nl) (fun n -> n) in
      Rng.shuffle_in_place (Rng.create seed) nets;
      let max_sinks =
        Array.fold_left (fun m net -> max m (Array.length (Nl.net nl net).Nl.sinks)) 1 nets
      in
      let out = Array.make max_sinks nan in
      Array.for_all
        (fun net ->
          let n = Nd.sink_delays_into dm st ws net ~out in
          let fresh = Nd.sink_delays dm st net in
          n = Array.length fresh && Array.for_all2 same_bits (Array.sub out 0 n) fresh)
        nets)

let test_routed_delays_present () =
  let st, nl = make_routed () in
  let dm = Dm.default in
  let n_checked = ref 0 in
  for net = 0 to Nl.n_nets nl - 1 do
    if Rs.is_fully_routed st net then begin
      match Nd.routed_sink_delays dm st net with
      | None -> Alcotest.fail "embedded net has no routed delays"
      | Some d ->
        incr n_checked;
        Alcotest.(check int) "one delay per sink"
          (Array.length (Nl.net nl net).Nl.sinks)
          (Array.length d);
        Array.iter (fun x -> Alcotest.(check bool) "positive delay" true (x > 0.0)) d
    end
  done;
  Alcotest.(check bool) "checked some nets" true (!n_checked > 10)

let test_unrouted_uses_estimate () =
  let nl = Gen.generate (Gen.default ~n_cells:80) ~seed:5 in
  let arch = Arch.size_for ~tracks:24 nl in
  let place = P.create_exn arch nl ~rng:(Rng.create 6) in
  let st = Rs.create place in
  (* nothing routed: routed_sink_delays must be None, sink_delays falls
     back to the estimate *)
  let dm = Dm.default in
  for net = 0 to min 20 (Nl.n_nets nl - 1) do
    if Array.length (Nl.net nl net).Nl.sinks > 0 then begin
      Alcotest.(check bool) "no exact delays yet" true (Nd.routed_sink_delays dm st net = None);
      let d = Nd.sink_delays dm st net in
      Array.iter (fun x -> Alcotest.(check bool) "estimate positive" true (x > 0.0)) d;
      Alcotest.(check (float 1e-9)) "estimate replicated" d.(0) d.(Array.length d - 1)
    end
  done

let test_estimate_grows_with_span () =
  (* Same 2-pin net, pins progressively farther apart: the estimate must
     not decrease. *)
  let nl =
    let b = Nl.Builder.create () in
    let pi = Nl.Builder.add_cell b ~name:"pi" ~kind:Spr_netlist.Cell_kind.Input ~n_inputs:0 in
    let po = Nl.Builder.add_cell b ~name:"po" ~kind:Spr_netlist.Cell_kind.Output ~n_inputs:1 in
    let n = Nl.Builder.add_net b ~name:"n" ~driver:pi in
    Nl.Builder.add_sink b ~net:n ~cell:po ~pin:0;
    Nl.Builder.finish_exn b
  in
  let arch = Arch.create ~rows:2 ~cols:30 ~tracks:4 () in
  let place = P.create_exn arch nl ~rng:(Rng.create 1) in
  let st = Rs.create place in
  let dm = Dm.default in
  (* move po along row 0 away from pi at col 0 *)
  let slot_pi = { P.row = 0; col = 0 } in
  let move_to_origin () =
    let s = P.slot_of place 0 in
    if s <> slot_pi then P.swap_slots place s slot_pi
  in
  move_to_origin ();
  let prev = ref 0.0 in
  List.iter
    (fun col ->
      let target = { P.row = 1; col } in
      let s = P.slot_of place 1 in
      if s <> target then P.swap_slots place s target;
      let e = Nd.estimate dm st 0 in
      Alcotest.(check bool) (Printf.sprintf "estimate at col %d grows" col) true (e >= !prev);
      prev := e)
    [ 1; 5; 10; 20; 29 ]

(* --- STA --- *)

let make_sta ?(n_cells = 80) ?(seed = 5) ?(tracks = 24) () =
  let st, nl = make_routed ~n_cells ~seed ~tracks () in
  (Sta.create Dm.default st, st, nl)

let test_sta_positive_critical () =
  let sta, _, _ = make_sta () in
  Alcotest.(check bool) "critical delay positive" true (Sta.critical_delay sta > 0.0)

let test_sta_arrivals_ordering () =
  let sta, _, nl = make_sta () in
  (* arrival at a comb cell's output >= arrival at its inputs *)
  for c = 0 to Nl.n_cells nl - 1 do
    let cell = Nl.cell nl c in
    if Spr_netlist.Cell_kind.equal cell.Nl.kind Spr_netlist.Cell_kind.Comb && cell.Nl.n_inputs > 0
    then
      Alcotest.(check bool) "out after in" true (Sta.arrival_out sta c >= Sta.arrival_in sta c)
  done

let test_sta_critical_path_valid () =
  let sta, _, nl = make_sta () in
  match Sta.critical_path sta with
  | [] -> Alcotest.fail "no critical path"
  | path ->
    let first = List.hd path in
    let last = List.nth path (List.length path - 1) in
    let fc = Nl.cell nl first and lc = Nl.cell nl last in
    Alcotest.(check bool) "starts at a source" true
      (Spr_netlist.Cell_kind.is_timing_source fc.Nl.kind || fc.Nl.n_inputs = 0);
    Alcotest.(check bool) "ends at a sink" true
      (Spr_netlist.Cell_kind.is_timing_sink lc.Nl.kind);
    (* consecutive cells are actually connected *)
    let rec check_links = function
      | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "consecutive cells connected" true
          (List.mem b (Nl.fanout_cells nl a));
        check_links rest
      | [ _ ] | [] -> ()
    in
    check_links path

(* The oracle test: incremental STA must agree with a from-scratch STA
   after arbitrary rip/reroute/move sequences. *)
let test_incremental_matches_full =
  QCheck.Test.make ~name:"incremental STA equals full STA after random moves" ~count:12
    QCheck.small_int (fun seed ->
      let nl = Gen.generate (Gen.default ~n_cells:70) ~seed:(seed mod 17) in
      let arch = Arch.size_for ~tracks:20 nl in
      let place = P.create_exn arch nl ~rng:(Rng.create (seed + 1)) in
      let st = Rs.create place in
      Router.route_all st;
      let sta = Sta.create Dm.default st in
      let rng = Rng.create (seed + 99) in
      let j = J.create () in
      let ok = ref true in
      for step = 1 to 30 do
        (* random legal swap *)
        let a = P.random_occupied_slot place rng in
        let b = P.random_slot place rng in
        if a <> b && P.swap_legal place a b then begin
          P.swap_slots place a b;
          J.record j (fun () -> P.swap_slots place a b);
          let cells =
            List.filter_map (fun s -> P.cell_at place s) [ a; b ]
          in
          let ripped = List.concat_map (fun c -> Router.rip_up_cell st j c) cells in
          let routed = Router.reroute st j in
          Sta.invalidate sta j (List.sort_uniq compare (ripped @ routed));
          (* randomly commit or roll back *)
          if Rng.bool rng then J.commit j else J.rollback j
        end;
        if step mod 10 = 0 then begin
          let inc = Sta.critical_delay sta in
          let fresh_sta = Sta.create Dm.default st in
          let scratch = Sta.critical_delay fresh_sta in
          if Float.abs (inc -. scratch) > 1e-6 then ok := false
        end
      done;
      !ok)

let test_invalidate_rollback_restores_arrivals () =
  let sta, st, nl = make_sta () in
  let place = Rs.place st in
  let before = Array.init (Nl.n_cells nl) (fun c -> Sta.arrival_out sta c) in
  let crit_before = Sta.critical_delay sta in
  let j = J.create () in
  let rng = Rng.create 31 in
  for _ = 1 to 10 do
    let a = P.random_occupied_slot place rng in
    let b = P.random_slot place rng in
    if a <> b && P.swap_legal place a b then begin
      P.swap_slots place a b;
      J.record j (fun () -> P.swap_slots place a b);
      let cells = List.filter_map (fun s -> P.cell_at place s) [ a; b ] in
      let ripped = List.concat_map (fun c -> Router.rip_up_cell st j c) cells in
      let routed = Router.reroute st j in
      Sta.invalidate sta j (List.sort_uniq compare (ripped @ routed))
    end
  done;
  J.rollback j;
  Array.iteri
    (fun c v ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "arrival of cell %d restored" c) v
        (Sta.arrival_out sta c))
    before;
  Alcotest.(check (float 1e-9)) "critical restored" crit_before (Sta.critical_delay sta)

(* --- moments / AWE --- *)

let test_moments_single_pole () =
  (* one RC: m1 = RC, m2 = (RC)^2, so D2M = ln2 * RC = exact 50% delay *)
  let t = Rc.create () in
  let root = Rc.add_node t ~cap:0.0 in
  let leaf = Rc.add_node t ~cap:2.0 in
  Rc.add_edge t root leaf ~res:3.0;
  let m1, m2 = Rc.moments t ~root in
  Alcotest.(check (float 1e-9)) "m1 = RC" 6.0 m1.(leaf);
  Alcotest.(check (float 1e-9)) "m2 = (RC)^2" 36.0 m2.(leaf)

let test_moments_chain () =
  (* root -R1- a(C1) -R2- b(C2):
     m1(a) = R1*(C1+C2), m1(b) = m1(a) + R2*C2
     m2(a) = R1*(C1*m1(a) + C2*m1(b))
     m2(b) = m2(a) + R2*(C2*m1(b)) *)
  let t = Rc.create () in
  let root = Rc.add_node t ~cap:0.0 in
  let a = Rc.add_node t ~cap:1.0 in
  let b = Rc.add_node t ~cap:4.0 in
  Rc.add_edge t root a ~res:2.0;
  Rc.add_edge t a b ~res:3.0;
  let m1, m2 = Rc.moments t ~root in
  let m1a = 2.0 *. 5.0 and m1b = (2.0 *. 5.0) +. (3.0 *. 4.0) in
  Alcotest.(check (float 1e-9)) "m1 a" m1a m1.(a);
  Alcotest.(check (float 1e-9)) "m1 b" m1b m1.(b);
  let m2a = 2.0 *. ((1.0 *. m1a) +. (4.0 *. m1b)) in
  Alcotest.(check (float 1e-9)) "m2 a" m2a m2.(a);
  Alcotest.(check (float 1e-9)) "m2 b" (m2a +. (3.0 *. 4.0 *. m1b)) m2.(b)

let test_moments_m1_equals_elmore =
  QCheck.Test.make ~name:"moments m1 equals elmore on random trees" ~count:100
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let t = Rc.create () in
      let _ = Rc.add_node t ~cap:(Rng.float rng 2.0) in
      for i = 1 to n - 1 do
        let p = Rng.int rng i in
        let node = Rc.add_node t ~cap:(Rng.float rng 2.0) in
        Rc.add_edge t p node ~res:(0.1 +. Rng.float rng 3.0)
      done;
      let d = Rc.elmore t ~root:0 in
      let m1, _ = Rc.moments t ~root:0 in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) d m1)

let test_awe_agreement () =
  let st, _ = make_routed ~tracks:24 () in
  let dm = Dm.default in
  let agreement = Spr_timing.Awe.compare_with_elmore dm st in
  Alcotest.(check bool) "many sinks evaluated" true (agreement.Spr_timing.Awe.n_sinks > 50);
  (* D2M estimates the 50% delay, Elmore the first moment; for a single
     pole the ratio is exactly ln 2 = 0.693. Real nets should cluster
     tightly around that factor — tight dispersion is what certifies the
     Elmore ranking. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean ratio %.3f near ln 2" agreement.Spr_timing.Awe.mean_ratio)
    true
    (agreement.Spr_timing.Awe.mean_ratio > 0.55 && agreement.Spr_timing.Awe.mean_ratio < 0.85);
  Alcotest.(check bool) "ratio never exceeds 1" true (agreement.Spr_timing.Awe.max_ratio <= 1.0);
  Alcotest.(check bool) "dispersion bounded" true
    (agreement.Spr_timing.Awe.max_ratio -. agreement.Spr_timing.Awe.min_ratio < 0.4)

let test_awe_per_net () =
  let st, nl = make_routed ~tracks:24 () in
  let dm = Dm.default in
  for net = 0 to Nl.n_nets nl - 1 do
    match Spr_timing.Awe.routed_sink_delays dm st net with
    | None -> ()
    | Some d ->
      Array.iter (fun x -> Alcotest.(check bool) "positive d2m" true (x > 0.0)) d;
      Alcotest.(check int) "one per sink"
        (Array.length (Nl.net nl net).Nl.sinks)
        (Array.length d)
  done

(* --- path report --- *)

let test_path_report () =
  let sta, _, nl = make_sta () in
  let paths = Spr_timing.Path_report.worst_paths ~k:5 sta in
  Alcotest.(check bool) "some paths" true (List.length paths > 0 && List.length paths <= 5);
  (* worst first, arrivals non-increasing, head matches critical delay *)
  (match paths with
  | first :: _ ->
    Alcotest.(check (float 1e-9)) "head is the critical delay" (Sta.critical_delay sta)
      first.Spr_timing.Path_report.arrival_ns
  | [] -> ());
  let rec decreasing = function
    | a :: (b :: _ as rest) ->
      a.Spr_timing.Path_report.arrival_ns >= b.Spr_timing.Path_report.arrival_ns
      && decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted" true (decreasing paths);
  List.iter
    (fun p ->
      (* each path ends at its endpoint *)
      let last = List.nth p.Spr_timing.Path_report.cells
          (List.length p.Spr_timing.Path_report.cells - 1) in
      Alcotest.(check int) "path ends at endpoint" p.Spr_timing.Path_report.endpoint last)
    paths;
  (* rendering mentions every endpoint *)
  let text = Spr_timing.Path_report.render nl paths in
  Alcotest.(check bool) "render nonempty" true (String.length text > 0)

let test_path_report_slack () =
  let sta, _, _ = make_sta () in
  let critical = Sta.critical_delay sta in
  let tight = critical *. 0.8 in
  let v = Spr_timing.Path_report.violations ~clock_period:tight sta in
  Alcotest.(check bool) "violations at a tight clock" true (List.length v > 0);
  List.iter
    (fun p ->
      match p.Spr_timing.Path_report.slack_ns with
      | Some s -> Alcotest.(check bool) "negative slack" true (s < 0.0)
      | None -> Alcotest.fail "violation without slack")
    v;
  let loose = critical *. 1.2 in
  Alcotest.(check int) "no violations at a loose clock" 0
    (List.length (Spr_timing.Path_report.violations ~clock_period:loose sta))

let () =
  Alcotest.run "spr_timing"
    [
      ("delay_model", [ Alcotest.test_case "intrinsic" `Quick test_intrinsic ]);
      ( "rc_tree",
        [
          Alcotest.test_case "two node" `Quick test_elmore_two_node;
          Alcotest.test_case "chain" `Quick test_elmore_chain;
          Alcotest.test_case "star" `Quick test_elmore_star;
          Alcotest.test_case "root symmetric" `Quick test_elmore_root_choice_changes_delays;
          Alcotest.test_case "add_cap" `Quick test_elmore_add_cap;
          Alcotest.test_case "rejects cycles" `Quick test_elmore_rejects_non_tree;
          Alcotest.test_case "rejects forests" `Quick test_elmore_rejects_disconnected;
          qtest test_elmore_monotone_along_path;
          qtest test_reused_tree_matches_reference;
        ] );
      ( "net_delay",
        [
          Alcotest.test_case "routed delays" `Quick test_routed_delays_present;
          Alcotest.test_case "unrouted estimate" `Quick test_unrouted_uses_estimate;
          Alcotest.test_case "estimate grows with span" `Quick test_estimate_grows_with_span;
          qtest test_workspace_matches_fresh;
        ] );
      ( "moments",
        [
          Alcotest.test_case "single pole" `Quick test_moments_single_pole;
          Alcotest.test_case "chain" `Quick test_moments_chain;
          qtest test_moments_m1_equals_elmore;
        ] );
      ( "awe",
        [
          Alcotest.test_case "agreement with elmore" `Quick test_awe_agreement;
          Alcotest.test_case "per-net d2m" `Quick test_awe_per_net;
        ] );
      ( "path_report",
        [
          Alcotest.test_case "worst paths" `Quick test_path_report;
          Alcotest.test_case "slack and violations" `Quick test_path_report_slack;
        ] );
      ( "sta",
        [
          Alcotest.test_case "positive critical" `Quick test_sta_positive_critical;
          Alcotest.test_case "arrival ordering" `Quick test_sta_arrivals_ordering;
          Alcotest.test_case "critical path valid" `Quick test_sta_critical_path_valid;
          Alcotest.test_case "rollback restores arrivals" `Quick
            test_invalidate_rollback_restores_arrivals;
          qtest test_incremental_matches_full;
        ] );
    ]
