(* Per-layer metrics. Each list holds (name, value, unit); README.md
   maps every name to the end-to-end metric it should move. *)

open Measure
module Rs = Spr_route.Route_state
module Sta = Spr_timing.Sta
module Tool = Spr_core.Tool
module Profile = Spr_core.Profile

(* Each replica's move time: the pipeline's bracketed propose and decide
   calls. *)
let replica_move_seconds (r : run) =
  List.map (fun (x : Tool.result) -> Profile.total_seconds x.Tool.profile) r.replicas

(* Layer metrics every workload reads from the untraced run's public
   results: the pipeline's Profile, the router counters, the engine
   report, the fleet results, the flow's stage records and GC deltas. *)
let public (u : run) =
  let p = u.profile in
  let moves = u.moves in
  let phase ph = 1e6 *. per (Profile.phase_seconds p ph) moves in
  let c = Profile.counters p in
  let stage name =
    List.fold_left
      (fun acc s -> if s.Spr_flow.sg_name = name then acc +. s.Spr_flow.sg_seconds else acc)
      0.0 u.result.Spr_flow.f_stages
  in
  let move_seconds = replica_move_seconds u in
  let skew =
    match move_seconds with
    | [] -> 1.0
    | xs -> List.fold_left Float.max 0.0 xs /. Float.max 1e-9 (List.fold_left Float.min infinity xs)
  in
  let exchanges =
    match u.result.Spr_flow.f_portfolio with
    | Some pr -> List.length pr.Tool.p_exchanges
    | None -> 0
  in
  [
    ("move_pipeline.propose_us_per_move", phase Profile.Propose, "us");
    ("move_pipeline.rip_up_us_per_move", phase Profile.Rip_up, "us");
    ("move_pipeline.global_us_per_move", phase Profile.Global, "us");
    ("move_pipeline.detail_us_per_move", phase Profile.Detail, "us");
    ("move_pipeline.retime_us_per_move", phase Profile.Retime, "us");
    ("move_pipeline.decide_us_per_move", phase Profile.Decide, "us");
    ("move_pipeline.accept_ratio", ratio u.accepted moves, "ratio");
    ("router.global_attempts_per_move", per (float_of_int c.Spr_route.Router.c_global_attempts) moves, "count");
    ("router.detail_attempts_per_move", per (float_of_int c.Spr_route.Router.c_detail_attempts) moves, "count");
    ( "router.global_success_ratio",
      ratio c.Spr_route.Router.c_global_routed c.Spr_route.Router.c_global_attempts,
      "ratio" );
    ( "router.detail_success_ratio",
      ratio c.Spr_route.Router.c_detail_routed c.Spr_route.Router.c_detail_attempts,
      "ratio" );
    ("router.ripped_nets_per_move", per (float_of_int (Profile.t_ripped_nets p)) moves, "count");
    ("sta.retimed_nets_per_move", per (float_of_int (Profile.t_retimed_nets p)) moves, "count");
    ("engine.moves", float_of_int moves, "count");
    ("engine.temperatures", float_of_int u.temperatures, "count");
    ("portfolio.offmove_share", 1.0 -. (mean move_seconds /. u.wall), "share");
    ("portfolio.replica_skew", skew, "ratio");
    ("portfolio.exchange_rounds", float_of_int exchanges, "count");
    ("gc.minor_collections_per_kmove", 1e3 *. per (float_of_int u.minor_collections) moves, "count");
    ("gc.major_collections", float_of_int u.major_collections, "count");
    ("spr_flow.ap_share", stage "ap" /. Float.max 1e-9 (Spr_flow.stage_seconds u.result), "share");
    ("spr_flow.sa_s", stage "sa", "s");
  ]

(* Layer metrics the serial driver times from the benchmark side. *)
let driver spans (o : Driver.outcome) =
  let a name = Span.agg spans name in
  let us_per_call (x : Span.agg) = 1e6 *. per x.Span.seconds x.Span.calls in
  let propose = a "move_pipeline.propose"
  and accept = a "move_pipeline.accept"
  and reject = a "move_pipeline.reject"
  and cost = a "engine.cost"
  and full = a "sta.full_update" in
  let decide_calls = accept.Span.calls + reject.Span.calls in
  [
    ("move_pipeline.propose_call_us", us_per_call propose, "us");
    ("move_pipeline.decide_call_us", 1e6 *. per (accept.Span.seconds +. reject.Span.seconds) decide_calls, "us");
    ( "move_pipeline.words_per_move",
      per (propose.Span.words +. accept.Span.words +. reject.Span.words) propose.Span.calls,
      "words" );
    ("router.initial_route_s", Span.mean (a "router.initial_route"), "s");
    ("router.finalize_s", Span.mean (a "router.finalize"), "s");
    ("sta.create_s", Span.mean (a "sta.create"), "s");
    ("sta.full_update_s", Span.mean full, "s");
    ("sta.cost_eval_ns", 1e9 *. per cost.Span.seconds cost.Span.calls, "ns");
    ("engine.self_share", 1.0 -. (o.Driver.callback_seconds /. o.Driver.anneal_seconds), "share");
  ]

(* Fleet and multi-stage workloads run inside the program's own run path,
   so the layer metrics the driver times come from a recording run's
   public results instead: its Profile for the per-call times, its GC
   delta for allocation (an upper bound: it includes set-up and
   finalize), the program's own recorded spans for the initial route,
   the finalize step and the anneal, and benchmark-side timing of the
   STA and cost calls on the delivered layout. *)
let recorded (t : run) =
  let p = t.profile in
  let decide = Profile.phase_seconds p Profile.Decide in
  let span_mean name =
    let ds =
      List.concat_map
        (fun (r : Tool.result) ->
          List.filter_map
            (fun (e : Spr_obs.Trace.event) ->
              match e.Spr_obs.Trace.ev with
              | Spr_obs.Trace.Span_end { name = n; dt; _ } when n = name -> Some dt
              | _ -> None)
            r.Tool.events)
        t.replicas
    in
    List.fold_left ( +. ) 0.0 ds /. float_of_int (max 1 (List.length ds))
  in
  let anneal = span_mean "anneal" in
  let f = t.result in
  let sta_create_s, sta, full_update_s =
    let t0 = now () in
    let sta = Sta.create (Sta.delay_model f.Spr_flow.f_sta) f.Spr_flow.f_route in
    let t1 = now () in
    Sta.full_update sta;
    (t1 -. t0, sta, now () -. t1)
  in
  let cost_eval_ns =
    let weights =
      Spr_anneal.Weights.create ~initial_delay:(Float.max 1e-6 (Sta.critical_delay sta)) ()
    in
    let reps = 100_000 and acc = ref 0.0 in
    let t0 = now () in
    for _ = 1 to reps do
      acc :=
        !acc
        +. Spr_anneal.Weights.cost weights ~g:(Rs.g_count f.Spr_flow.f_route)
             ~d:(Rs.d_count f.Spr_flow.f_route) ~delay:(Sta.critical_delay sta)
    done;
    ignore (Sys.opaque_identity !acc);
    1e9 *. (now () -. t0) /. float_of_int reps
  in
  [
    ("move_pipeline.propose_call_us", 1e6 *. per (Profile.total_seconds p -. decide) t.moves, "us");
    ("move_pipeline.decide_call_us", 1e6 *. per decide (Profile.phase_calls p Profile.Decide), "us");
    ("move_pipeline.words_per_move", per t.minor_words t.moves, "words");
    ("router.initial_route_s", span_mean "route.initial", "s");
    ("router.finalize_s", span_mean "finalize", "s");
    ("sta.create_s", sta_create_s, "s");
    ("sta.full_update_s", full_update_s, "s");
    ("sta.cost_eval_ns", cost_eval_ns, "ns");
    ( "engine.self_share",
      1.0 -. (mean (replica_move_seconds t) /. Float.max 1e-9 anneal),
      "share" );
  ]

