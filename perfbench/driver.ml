(* The traced serial run: a benchmark-side composition of the program's
   public layer calls, in exactly the order a fresh-start serial
   [Spr_flow.run] (preset [sa], one replica) makes them, each call timed
   into a {!Span} aggregate named after it:

   - [Placement.create] on the seed's RNG stream;
   - [Route_state.create], then [Router.route_all ~passes:2];
   - [Sta.create] and [Weights.create];
   - [Move_pipeline.create], then [Engine.run], calling [Weights.adapt]
     at each temperature;
   - [Router.route_all ~passes:3], then [Sta.full_update].

   Under a move budget the program also canonicalizes the timing picture
   and keeps the best-so-far layout at every temperature boundary, and
   delivers that layout when the budget stops the run; the driver does
   the same. The caller checks that the driver reaches the same moves,
   G, D and critical delay as the untraced run: if it does not, it
   measured a different program. *)

module P = Spr_layout.Placement
module Rs = Spr_route.Route_state
module Router = Spr_route.Router
module Sta = Spr_timing.Sta
module Weights = Spr_anneal.Weights
module Engine = Spr_anneal.Engine
module Pipeline = Spr_core.Move_pipeline
module C = Spr_core.Tool.Config

type outcome = {
  place : P.t;
  route : Rs.t;
  sta : Sta.t;
  report : Engine.report;
  anneal_seconds : float;
  callback_seconds : float;  (** Time spent inside the engine's callbacks. *)
}

(* The configurations the composition above reproduces. *)
let supported (c : C.t) =
  c.C.flow.C.preset = "sa"
  && c.C.parallel.C.replicas = 1
  && c.C.parallel.C.stream = 0
  && (not c.C.timing_driven_routing)
  && (not c.C.validation.C.validate)
  && c.C.persistence.C.run_dir = None
  && c.C.budget.C.time_budget = None
  && c.C.budget.C.stop_after_accepted = None
  && c.C.budget.C.poll = None

(* The program's weight-independent best-so-far metric: unrouted nets
   dominate, critical delay breaks ties. *)
let best_metric rs sta = (float_of_int (Rs.g_count rs + Rs.d_count rs) *. 1e9) +. Sta.critical_delay sta

let run ~spans (config : C.t) arch nl =
  if not (supported config) then invalid_arg "Driver.run: unsupported configuration";
  let sp name f = Span.timed (Span.agg spans name) f in
  let rng = Spr_util.Rng.stream ~seed:config.C.seed ~index:0 in
  let place =
    match sp "placement.create" (fun () -> P.create arch nl ~rng) with
    | Ok p -> p
    | Error e -> failwith ("Placement.create: " ^ e)
  in
  let rs = sp "route_state.create" (fun () -> Rs.create place) in
  sp "router.initial_route" (fun () -> Router.route_all ~config:config.C.router ~passes:2 rs);
  let sta = sp "sta.create" (fun () -> Sta.create config.C.delay_model rs) in
  let weights =
    sp "weights.create" (fun () ->
        Weights.create ~g_per_net:config.C.weights.C.g_per_net
          ~d_per_net:config.C.weights.C.d_per_net ~t_emphasis:config.C.weights.C.t_emphasis
          ~initial_delay:(Float.max 1e-6 (Sta.critical_delay sta))
          ())
  in
  let pipeline =
    sp "move_pipeline.create" (fun () ->
        Pipeline.create ~router:config.C.router
          ~pinmap_move_prob:config.C.moves.C.pinmap_move_prob
          ~enable_pinmap_moves:config.C.moves.C.enable_pinmap_moves
          ~max_swap_tries:config.C.moves.C.max_swap_tries ~place ~rs ~sta ~weights
          ~journal:(Spr_util.Journal.create ()) ())
  in
  let a_propose = Span.agg spans "move_pipeline.propose"
  and a_accept = Span.agg spans "move_pipeline.accept"
  and a_reject = Span.agg spans "move_pipeline.reject"
  and a_cost = Span.agg spans "engine.cost"
  and a_temp = Span.agg spans "engine.on_temperature"
  and a_ckpt = Span.agg spans "engine.on_checkpoint"
  and a_full = Span.agg spans "sta.full_update" in
  let budget = config.C.budget.C.max_moves in
  let stopped = ref false in
  let should_stop ~moves ~accepted:_ =
    (match budget with Some m when moves >= m -> stopped := true | _ -> ());
    !stopped
  in
  let best = ref (infinity, None) in
  let on_checkpoint ~at:_ _snapshot =
    if budget <> None then
      Span.timed a_ckpt (fun () ->
          Span.timed a_full (fun () -> Sta.full_update sta);
          let metric = best_metric rs sta in
          if metric < fst !best then
            best := (metric, Some (Spr_core.Checkpoint.to_string rs)))
  in
  let t0 = Span.now () in
  let report =
    sp "engine.run" (fun () ->
        Engine.run ?config:config.C.anneal
          ~on_temperature:(fun _ -> Span.timed a_temp (fun () -> Weights.adapt weights))
          ~on_checkpoint ~should_stop ~rng
          ~cost:(fun () ->
            Span.timed a_cost (fun () ->
                Weights.cost weights ~g:(Rs.g_count rs) ~d:(Rs.d_count rs)
                  ~delay:(Sta.critical_delay sta)))
          ~propose:(fun rng -> Span.timed a_propose (fun () -> Pipeline.propose pipeline rng))
          ~accept:(fun () -> Span.timed a_accept (fun () -> Pipeline.accept pipeline))
          ~reject:(fun () -> Span.timed a_reject (fun () -> Pipeline.reject pipeline))
          ~n:(Spr_netlist.Netlist.n_cells nl) ())
  in
  let anneal_seconds = Span.now () -. t0 in
  let callback_seconds =
    List.fold_left
      (fun acc (a : Span.agg) -> acc +. a.Span.seconds)
      0.0
      [ a_propose; a_accept; a_reject; a_cost; a_temp; a_ckpt ]
  in
  (* A budget-stopped run delivers the best-so-far layout when it beats
     the live one. *)
  let place, rs, sta =
    match !best with
    | best_cost, Some text when !stopped && best_cost < best_metric rs sta -> (
      match Spr_core.Checkpoint.of_string nl text with
      | Ok brs -> (Rs.place brs, brs, sp "sta.create" (fun () -> Sta.create config.C.delay_model brs))
      | Error e -> failwith ("best-so-far layout: " ^ e))
    | _ -> (place, rs, sta)
  in
  sp "router.finalize" (fun () -> Router.route_all ~config:config.C.router ~passes:3 rs);
  Span.timed a_full (fun () -> Sta.full_update sta);
  { place; route = rs; sta; report; anneal_seconds; callback_seconds }
