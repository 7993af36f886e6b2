let log_src = Logs.Src.create "spr.tool" ~doc:"Simultaneous place-and-route progress"

module Log = (val Logs.src_log log_src : Logs.LOG)

module P = Spr_layout.Placement
module Rs = Spr_route.Route_state
module Router = Spr_route.Router
module Sta = Spr_timing.Sta
module J = Spr_util.Journal
module Portfolio = Spr_anneal.Portfolio
module Scheduler = Spr_anneal.Scheduler

module Config = struct
  type moves = {
    pinmap_move_prob : float;
    enable_pinmap_moves : bool;
    max_swap_tries : int;
  }

  type weights = {
    g_per_net : float;
    d_per_net : float;
    t_emphasis : float;
  }

  type budget = {
    time_budget : float option;
    max_moves : int option;
    stop_after_accepted : int option;
    poll : (unit -> bool) option;
  }

  type persistence = {
    run_dir : string option;
    snapshot_every : int;
    snapshot_keep : int;
    final_checkpoint : bool;
  }

  type validation = {
    validate : bool;
    validate_every : int;
  }

  type scheduler = {
    kind : [ `Barrier | `Racing ];
    race_margin : float;
    race_warmup : int;
    race_every : int;
    race_horizon : int;
    race_sync : bool;
  }

  type parallel = {
    replicas : int;
    exchange : Portfolio.exchange;
    scheduler : scheduler;
    stream : int;
  }

  type obs = {
    record : bool;
    trace_path : string option;
    report_path : string option;
    label : string option;
    on_event : (Spr_obs.Trace.event -> unit) option;
  }

  type flow = {
    preset : string;
    stage_budgets : (string * float) list;
  }

  type t = {
    seed : int;
    router : Router.config;
    timing_driven_routing : bool;
    delay_model : Spr_timing.Delay_model.t;
    anneal : Spr_anneal.Engine.config option;
    moves : moves;
    weights : weights;
    budget : budget;
    persistence : persistence;
    validation : validation;
    parallel : parallel;
    obs : obs;
    flow : flow;
  }

  let default =
    {
      seed = 1;
      router = Router.default_config;
      timing_driven_routing = false;
      delay_model = Spr_timing.Delay_model.default;
      anneal = None;
      moves = { pinmap_move_prob = 0.15; enable_pinmap_moves = true; max_swap_tries = 8 };
      weights = { g_per_net = 0.04; d_per_net = 0.02; t_emphasis = 1.0 };
      budget = { time_budget = None; max_moves = None; stop_after_accepted = None; poll = None };
      persistence =
        { run_dir = None; snapshot_every = 1; snapshot_keep = 3; final_checkpoint = true };
      validation = { validate = false; validate_every = 50 };
      parallel =
        {
          replicas = 1;
          exchange = Portfolio.Independent;
          scheduler =
            {
              kind = `Barrier;
              race_margin = 1.0;
              race_warmup = 10;
              race_every = 5;
              race_horizon = 10;
              race_sync = true;
            };
          stream = 0;
        };
      obs =
        { record = false; trace_path = None; report_path = None; label = None; on_event = None };
      flow = { preset = "sa"; stage_budgets = [] };
    }

  (* --- flow vocabulary ---
     The stage names and named presets live here (not in [Spr_flow])
     so [validated] can reject bad flows without a dependency on the
     flow engine, which sits above this library. *)

  let flow_stage_names = [ "ap"; "sa"; "greedy"; "route"; "sta" ]

  let flow_presets =
    [
      ("sa", [ "sa" ]);
      ("ap+sa", [ "ap"; "sa" ]);
      ("ap+greedy+route", [ "ap"; "greedy"; "route" ]);
      ("seq", [ "greedy"; "route"; "sta" ]);
    ]

  let flow_preset_names = List.map fst flow_presets

  (* Stage-order sanity shared by named presets and ad-hoc '+' chains:
     [ap] places from scratch so it can only open a flow; [route] needs
     a placement to route; [sta] needs routing to time. *)
  let check_stage_order stages =
    let rec walk ~placed ~routed ~pos = function
      | [] -> Ok ()
      | "ap" :: rest ->
        if pos > 0 then Error "stage ap must come first (it places from scratch)"
        else walk ~placed:true ~routed ~pos:(pos + 1) rest
      | "sa" :: rest -> walk ~placed:true ~routed:true ~pos:(pos + 1) rest
      | "greedy" :: rest -> walk ~placed:true ~routed ~pos:(pos + 1) rest
      | "route" :: rest ->
        if not placed then Error "stage route needs a preceding placement stage (ap|sa|greedy)"
        else walk ~placed ~routed:true ~pos:(pos + 1) rest
      | "sta" :: rest ->
        if not routed then Error "stage sta needs a preceding routing stage (sa|route)"
        else walk ~placed ~routed ~pos:(pos + 1) rest
      | s :: _ -> Error (Printf.sprintf "unknown stage %s" s)
    in
    walk ~placed:false ~routed:false ~pos:0 stages

  let flow_stages_of_preset name =
    let valid () =
      Printf.sprintf "valid presets: %s; or any '+'-joined chain of stages %s"
        (String.concat ", " flow_preset_names)
        (String.concat "|" flow_stage_names)
    in
    match List.assoc_opt name flow_presets with
    | Some stages -> Ok stages
    | None ->
      let stages = String.split_on_char '+' name in
      if name = "" || List.exists (fun s -> s = "") stages then
        Error (Printf.sprintf "empty flow preset %S; %s" name (valid ()))
      else begin
        let unknown = List.filter (fun s -> not (List.mem s flow_stage_names)) stages in
        match unknown with
        | _ :: _ ->
          Error
            (Printf.sprintf "unknown flow stage%s %s in preset %s; %s"
               (if List.length unknown > 1 then "s" else "")
               (String.concat ", " unknown) name (valid ()))
        | [] -> (
          let dup =
            List.filter (fun s -> List.length (List.filter (( = ) s) stages) > 1) stages
          in
          match dup with
          | d :: _ -> Error (Printf.sprintf "stage %s repeats in preset %s" d name)
          | [] -> (
            match check_stage_order stages with
            | Error e -> Error (Printf.sprintf "%s (preset %s)" e name)
            | Ok () -> Ok stages))
      end

  (* --- scheduler vocabulary ---
     "barrier" is the historical all-active exchange barrier;
     "racing" the deterministic predictive scheduler; "racing:free"
     its asynchronous, non-reproducible variant. *)

  let scheduler_to_string (s : scheduler) =
    match s.kind with
    | `Barrier -> "barrier"
    | `Racing -> if s.race_sync then "racing" else "racing:free"

  let scheduler_of_string name =
    match name with
    | "barrier" -> Ok (`Barrier, true)
    | "racing" -> Ok (`Racing, true)
    | "racing:free" -> Ok (`Racing, false)
    | _ ->
      Error
        (Printf.sprintf "unknown scheduler %S (want barrier, racing, or racing:free)" name)

  (* The one place configuration sanity lives. Nonsense is rejected
     with a message naming every offending field; the historical
     "clamp to >= 1" fields are normalized here instead of at their
     points of use. *)
  let validated t =
    let errors = ref [] in
    let reject fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let p = t.moves.pinmap_move_prob in
    if not (p >= 0.0 && p <= 1.0) then
      reject "pinmap_move_prob must be within [0, 1] (got %g)" p;
    if t.moves.max_swap_tries < 1 then
      reject "max_swap_tries must be >= 1 (got %d)" t.moves.max_swap_tries;
    let weight name v =
      if not (Float.is_finite v && v >= 0.0) then
        reject "%s must be finite and >= 0 (got %g)" name v
    in
    weight "g_per_net" t.weights.g_per_net;
    weight "d_per_net" t.weights.d_per_net;
    weight "t_emphasis" t.weights.t_emphasis;
    (match t.budget.time_budget with
    | Some b when not (Float.is_finite b && b > 0.0) ->
      reject "time_budget must be a positive number of seconds (got %g)" b
    | _ -> ());
    (match t.budget.max_moves with
    | Some m when m < 0 -> reject "max_moves must be >= 0 (got %d)" m
    | _ -> ());
    (match t.budget.stop_after_accepted with
    | Some k when k < 1 -> reject "stop_after_accepted must be >= 1 (got %d)" k
    | _ -> ());
    if t.parallel.replicas < 1 then
      reject "parallel replicas must be >= 1 (got %d)" t.parallel.replicas;
    if t.parallel.stream < 0 then
      reject "parallel stream must be >= 0 (got %d)" t.parallel.stream;
    (match t.parallel.exchange with
    | Portfolio.Independent -> ()
    | Portfolio.Best_exchange n when n >= 1 -> ()
    | Portfolio.Best_exchange n -> reject "exchange period must be >= 1 (got %d)" n);
    (let s = t.parallel.scheduler in
     if not (Float.is_finite s.race_margin && s.race_margin >= 0.0) then
       reject "race_margin must be finite and >= 0 (got %g)" s.race_margin;
     if s.race_warmup < 0 then reject "race_warmup must be >= 0 (got %d)" s.race_warmup;
     if s.race_every < 1 then reject "race_every must be >= 1 (got %d)" s.race_every;
     if s.race_horizon < 1 then reject "race_horizon must be >= 1 (got %d)" s.race_horizon;
     match (s.kind, t.parallel.exchange) with
     | `Racing, Portfolio.Best_exchange _ ->
       reject "the racing scheduler replaces the exchange barrier; use exchange independent"
     | (`Racing | `Barrier), _ -> ());
    (match flow_stages_of_preset t.flow.preset with
    | Error e -> reject "%s" e
    | Ok stages ->
      List.iter
        (fun (stage, seconds) ->
          if not (List.mem stage flow_stage_names) then
            reject "stage_budget for unknown stage %s (valid stages: %s)" stage
              (String.concat "|" flow_stage_names)
          else if not (List.mem stage stages) then
            reject "stage_budget for stage %s absent from flow %s" stage t.flow.preset;
          if not (Float.is_finite seconds && seconds > 0.0) then
            reject "stage_budget for %s must be positive seconds (got %g)" stage seconds)
        t.flow.stage_budgets;
      let keys = List.map fst t.flow.stage_budgets in
      List.iter
        (fun k ->
          if List.length (List.filter (( = ) k) keys) > 1 then
            reject "duplicate stage_budget for stage %s" k)
        (List.sort_uniq compare keys));
    match !errors with
    | _ :: _ -> Error (String.concat "; " (List.rev !errors))
    | [] ->
      Ok
        {
          t with
          persistence =
            {
              t.persistence with
              snapshot_every = max 1 t.persistence.snapshot_every;
              snapshot_keep = max 1 t.persistence.snapshot_keep;
            };
          validation = { t.validation with validate_every = max 1 t.validation.validate_every };
        }

  let with_seed seed t = { t with seed }

  let with_router router t = { t with router }

  let with_timing_driven_routing timing_driven_routing t = { t with timing_driven_routing }

  let with_delay_model delay_model t = { t with delay_model }

  let with_anneal cfg t = { t with anneal = Some cfg }

  let with_moves moves t = { t with moves }

  let with_pinmap_moves ?prob enable t =
    {
      t with
      moves =
        {
          t.moves with
          enable_pinmap_moves = enable;
          pinmap_move_prob =
            (match prob with Some p -> p | None -> t.moves.pinmap_move_prob);
        };
    }

  let with_max_swap_tries max_swap_tries t = { t with moves = { t.moves with max_swap_tries } }

  let with_weights weights t = { t with weights }

  let with_budget budget t = { t with budget }

  let with_time_budget b t = { t with budget = { t.budget with time_budget = Some b } }

  let with_max_moves m t = { t with budget = { t.budget with max_moves = Some m } }

  let with_stop_after_accepted k t =
    { t with budget = { t.budget with stop_after_accepted = Some k } }

  let with_cancel_poll f t = { t with budget = { t.budget with poll = Some f } }

  let with_persistence persistence t = { t with persistence }

  let with_run_dir ?snapshot_every ?snapshot_keep dir t =
    {
      t with
      persistence =
        {
          t.persistence with
          run_dir = Some dir;
          snapshot_every =
            (match snapshot_every with Some e -> e | None -> t.persistence.snapshot_every);
          snapshot_keep =
            (match snapshot_keep with Some k -> k | None -> t.persistence.snapshot_keep);
        };
    }

  let with_final_checkpoint final_checkpoint t =
    { t with persistence = { t.persistence with final_checkpoint } }

  let with_validation validation t = { t with validation }

  let with_validate ?every validate t =
    {
      t with
      validation =
        {
          validate;
          validate_every = (match every with Some e -> e | None -> t.validation.validate_every);
        };
    }

  let with_parallel parallel t = { t with parallel }

  let with_replicas ?exchange replicas t =
    {
      t with
      parallel =
        {
          t.parallel with
          replicas;
          exchange = (match exchange with Some x -> x | None -> t.parallel.exchange);
        };
    }

  let with_stream stream t = { t with parallel = { t.parallel with stream } }

  let with_scheduler scheduler t = { t with parallel = { t.parallel with scheduler } }

  let with_scheduler_kind ?sync kind t =
    let s = t.parallel.scheduler in
    with_scheduler
      { s with kind; race_sync = (match sync with Some b -> b | None -> s.race_sync) }
      t

  let with_race_margin race_margin t =
    with_scheduler { t.parallel.scheduler with race_margin } t

  let with_race_warmup race_warmup t =
    with_scheduler { t.parallel.scheduler with race_warmup } t

  let with_race_every race_every t =
    with_scheduler { t.parallel.scheduler with race_every } t

  let with_obs obs t = { t with obs }

  let with_trace_recording record t = { t with obs = { t.obs with record } }

  let with_trace_file path t = { t with obs = { t.obs with trace_path = Some path } }

  let with_report_file path t = { t with obs = { t.obs with report_path = Some path } }

  let with_run_label label t = { t with obs = { t.obs with label = Some label } }

  let with_on_event f t = { t with obs = { t.obs with on_event = Some f } }

  let with_flow flow t = { t with flow }

  let with_flow_preset preset t = { t with flow = { t.flow with preset } }

  let with_stage_budget stage seconds t =
    let rest = List.filter (fun (s, _) -> s <> stage) t.flow.stage_budgets in
    { t with flow = { t.flow with stage_budgets = rest @ [ (stage, seconds) ] } }
end

type config = Config.t

let default_config = Config.default

type stop_reason = Outcome.stop_reason = Time_budget | Move_budget | Interrupt

type status = Outcome.status = Completed | Interrupted of stop_reason

let stop_reason_to_string = Outcome.stop_reason_to_string

type error = Outcome.error =
  | Invalid_config of string
  | Invalid_design of string
  | Audit_failed of Spr_check.Finding.t list
  | Resume_failed of string

exception Tool_error = Outcome.Error

let error_to_string = Outcome.error_to_string

(* --- graceful interruption ---
   Atomic so that portfolio replicas on other domains observe the flag
   promptly; the signal handler still runs on the main domain. *)

let interrupt_flag = Atomic.make false

let request_interrupt () = Atomic.set interrupt_flag true

let reset_interrupt () = Atomic.set interrupt_flag false

let interrupt_requested () = Atomic.get interrupt_flag

let install_signal_handlers () =
  let handle _ = request_interrupt () in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handle);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handle)

(* Re-entrant variant for embedders (the service daemon, tests, any
   host process with its own signal discipline): the previous SIGINT
   and SIGTERM behaviours are saved and restored however the thunk
   exits, so a nested run cannot clobber the host's handlers. *)
let with_signal_handlers f =
  let handle _ = request_interrupt () in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle handle) in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle handle) in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigterm prev_term)
    f

type result = {
  place : P.t;
  route : Rs.t;
  sta : Sta.t;
  critical_delay : float;
  g : int;
  d : int;
  fully_routed : bool;
  anneal_report : Spr_anneal.Engine.report;
  dynamics : Dynamics.sample list;
  profile : Profile.t;
  cpu_seconds : float;
  status : status;
  best_cost : float;
  report : Spr_obs.Report.t;
  events : Spr_obs.Trace.event list;
}

let route_summary rs =
  let stats = Spr_route.Route_stats.collect rs in
  {
    Spr_obs.Report.rt_routed_nets = stats.Spr_route.Route_stats.routed_nets;
    rt_unrouted_nets = stats.Spr_route.Route_stats.unrouted_nets;
    rt_h_wirelength = stats.Spr_route.Route_stats.horizontal_wirelength;
    rt_v_wirelength = stats.Spr_route.Route_stats.vertical_wirelength;
    rt_h_antifuses = stats.Spr_route.Route_stats.horizontal_antifuses;
    rt_v_antifuses = stats.Spr_route.Route_stats.vertical_antifuses;
    rt_x_antifuses = stats.Spr_route.Route_stats.cross_antifuses;
    rt_vertical_used = stats.Spr_route.Route_stats.vertical_used;
    rt_vertical_total = stats.Spr_route.Route_stats.vertical_total;
    rt_channels =
      List.map
        (fun (cu : Spr_route.Route_stats.channel_util) ->
          {
            Spr_obs.Report.ch_index = cu.Spr_route.Route_stats.cu_channel;
            ch_used_len = cu.Spr_route.Route_stats.cu_used_len;
            ch_total_len = cu.Spr_route.Route_stats.cu_total_len;
            ch_used_segments = cu.Spr_route.Route_stats.cu_used_segments;
            ch_total_segments = cu.Spr_route.Route_stats.cu_total_segments;
          })
        stats.Spr_route.Route_stats.channels;
  }

let run_label (config : Config.t) = Option.value config.Config.obs.Config.label ~default:"run"

(* One move = one transaction, run by the five-phase {!Move_pipeline}:
   [propose] applies everything (placement delta, rip-ups, reroutes,
   timing propagation) into the shared journal; accept commits it,
   reject rolls the whole cascade back.

   The layout-bearing fields are mutable because a portfolio replica
   can adopt the fleet-best layout at an exchange boundary: the whole
   place/route/timing complex is swapped out mid-run while the engine,
   weights and dynamics recorder carry on. Every closure handed to the
   engine reads these fields through [s], never through a captured
   alias. *)
type session = {
  mutable place : P.t;
  mutable rs : Rs.t;
  mutable sta : Sta.t;
  weights : Spr_anneal.Weights.t;
  mutable pipeline : Move_pipeline.t;
  dyn : Dynamics.t;
  mutable accepted_since_audit : int;
}

let session_cost s =
  Spr_anneal.Weights.cost s.weights ~g:(Rs.g_count s.rs) ~d:(Rs.d_count s.rs)
    ~delay:(Sta.critical_delay s.sta)

(* Best-so-far comparisons need a metric that is stable across the whole
   run, so it cannot use the adaptive weights (their normalization
   drifts between temperatures): unrouted nets dominate, critical delay
   breaks ties. The same metric compares replicas across a portfolio,
   precisely because it is weight-independent. *)
let best_metric ~rs ~sta =
  (float_of_int (Rs.g_count rs + Rs.d_count rs) *. 1e9) +. Sta.critical_delay sta

(* The full audit subsystem: placement bijection/legality, the routing
   mirror oracle, and a from-scratch STA diff. Failing here turns a
   silently corrupted cost function into an immediate, attributable
   structured error. *)
exception Audit_failure of Spr_check.Finding.t list

let validate_now s =
  match Spr_check.Audit.run_all ~sta:s.sta s.rs with
  | [] -> ()
  | findings -> raise (Audit_failure findings)

type resume = Checkpoint.V2.loaded

let timing_router ~(config : Config.t) ~sta nl =
  if not config.timing_driven_routing then config.router
  else begin
    let crit net =
      Sta.arrival_out sta (Spr_netlist.Netlist.net nl net).Spr_netlist.Netlist.driver
    in
    { config.router with Router.criticality = Some crit }
  end

(* A replica's view of the portfolio it runs in; absent for serial
   runs (and one-replica portfolios, which ARE serial runs). *)
type replica_ctx = {
  rep_index : int;
  rep_sched : Scheduler.t;
}

(* Swap the session onto a broadcast layout: decode it, rebuild the
   timing picture canonically, and build a fresh pipeline around the
   new state — continuing the existing profile, weights, dynamics and
   RNG stream. The criticality closure inside the router config
   captures the STA, so the pipeline rebuild also re-derives the
   router config. *)
let adopt_layout ~(config : Config.t) s (r : Portfolio.round_result) =
  let nl = P.netlist s.place in
  match Checkpoint.of_string nl r.Portfolio.xr_payload with
  | Error e ->
    Log.warn (fun m ->
        m "exchange round %d: broadcast layout failed to decode (%s); keeping own layout"
          r.Portfolio.xr_round e)
  | Ok rs ->
    let place = Rs.place rs in
    let sta = Sta.create config.delay_model rs in
    let pipeline =
      Move_pipeline.create
        ~profile:(Move_pipeline.profile s.pipeline)
        ~router:(timing_router ~config ~sta nl)
        ~pinmap_move_prob:config.moves.pinmap_move_prob
        ~enable_pinmap_moves:config.moves.enable_pinmap_moves
        ~max_swap_tries:config.moves.max_swap_tries ~place ~rs ~sta ~weights:s.weights
        ~journal:(J.create ()) ()
    in
    s.place <- place;
    s.rs <- rs;
    s.sta <- sta;
    s.pipeline <- pipeline;
    Log.info (fun m ->
        m "adopted portfolio-best layout of replica %d at exchange round %d (metric %.4g)"
          r.Portfolio.xr_best_replica r.Portfolio.xr_round r.Portfolio.xr_best_metric)

(* The annealing loop shared by fresh and resumed runs. [s] is a fully
   initialized session whose STA is canonical (freshly built or
   [full_update]d); [resume] carries the engine schedule position when
   continuing from a snapshot; [ctx] makes this run one replica of a
   portfolio. *)
let anneal_session ?resume ?ctx ?start_temperature ~(config : Config.t) ~rng ~best s =
  let nl = P.netlist s.place in
  let n_routable = max 1 (Rs.n_routable s.rs) in
  let profile = Move_pipeline.profile s.pipeline in
  let batch_mark = ref (Profile.mark profile) in
  let replica = Option.map (fun c -> c.rep_index) ctx in
  (* Per-temperature acceptance ratios, bucketed by decile, registered
     next to the pipeline's metrics so one snapshot carries both. *)
  let acceptance_hist =
    Spr_obs.Metrics.histogram (Profile.registry profile)
      ~bounds:[| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 |]
      "anneal.acceptance"
  in
  let on_temperature (ts : Spr_anneal.Engine.temp_stats) =
    Spr_anneal.Weights.adapt s.weights;
    if config.validation.validate then validate_now s;
    let delta = Profile.since profile !batch_mark in
    let phase_seconds = delta.Profile.d_phase_seconds in
    batch_mark := Profile.mark profile;
    Log.debug (fun m ->
        m "temp %d T=%.4g acc=%d/%d G=%d D=%d delay=%.2fns"
          ts.Spr_anneal.Engine.temp_index ts.Spr_anneal.Engine.temperature
          ts.Spr_anneal.Engine.accepted ts.Spr_anneal.Engine.attempted (Rs.g_count s.rs)
          (Rs.d_count s.rs) (Sta.critical_delay s.sta));
    Log.debug (fun m ->
        m "temp %d phases [%s] move=%.1fms batch=%.1fms (%d moves)"
          ts.Spr_anneal.Engine.temp_index
          (String.concat ", "
             (List.map
                (fun p ->
                  Printf.sprintf "%s %.1fms" (Profile.phase_name p)
                    (1e3 *. phase_seconds.(Profile.phase_index p)))
                Profile.phases))
          (1e3 *. delta.Profile.d_move_seconds)
          (1e3 *. ts.Spr_anneal.Engine.batch_seconds)
          delta.Profile.d_moves);
    let acceptance =
      if ts.Spr_anneal.Engine.attempted = 0 then 0.0
      else
        float_of_int ts.Spr_anneal.Engine.accepted
        /. float_of_int ts.Spr_anneal.Engine.attempted
    in
    let phase_words =
      Array.map
        (fun w -> w /. float_of_int (max 1 delta.Profile.d_moves))
        delta.Profile.d_phase_words
    in
    Dynamics.flush s.dyn ~phase_seconds ~phase_words ~temp_index:ts.Spr_anneal.Engine.temp_index
      ~temperature:ts.Spr_anneal.Engine.temperature
      ~g_frac:(float_of_int (Rs.g_count s.rs) /. float_of_int n_routable)
      ~d_frac:(float_of_int (Rs.d_count s.rs) /. float_of_int n_routable)
      ~acceptance ~cost:(session_cost s)
      ~critical_delay:(Sta.critical_delay s.sta);
    Spr_obs.Metrics.observe acceptance_hist acceptance;
    if Spr_obs.Obs.recording () then
      Option.iter
        (fun sample -> Spr_obs.Obs.emit (Spr_obs.Trace.Temp (Dynamics.to_row sample)))
        (Dynamics.last_sample s.dyn);
    (* Scheduling AFTER the batch's own dynamics are flushed, so the
       trace describes what this replica actually annealed. The sample
       handed to the scheduler carries the same values the flushed
       dynamics row does, so decisions are a function of masked trace
       content — what makes deterministic racing replayable. *)
    match ctx with
    | None -> ()
    | Some c -> (
      match
        Scheduler.observe c.rep_sched ~replica:c.rep_index
          ~temp_index:ts.Spr_anneal.Engine.temp_index
          ~metric:(best_metric ~rs:s.rs ~sta:s.sta)
          ~acceptance
          ~capture:(fun () -> Checkpoint.to_string s.rs)
      with
      | Scheduler.Continue -> ()
      | Scheduler.Adopt { round; from_replica; metric; payload } ->
        adopt_layout ~config s
          {
            Portfolio.xr_round = round;
            xr_best_replica = from_replica;
            xr_best_metric = metric;
            xr_payload = payload;
          }
      | Scheduler.Kill { round; from_replica; metric; payload; stream } ->
        (* Early-killed: this domain is reallocated to a fork of the
           round leader. Adopt its layout and continue on a fresh RNG
           stream — the stream switch IS the perturbation that makes
           the fork explore differently from its parent. *)
        adopt_layout ~config s
          {
            Portfolio.xr_round = round;
            xr_best_replica = from_replica;
            xr_best_metric = metric;
            xr_payload = payload;
          };
        Spr_util.Rng.assign rng ~from:(Spr_util.Rng.stream ~seed:config.seed ~index:stream);
        Log.info (fun m ->
            m "replica %d killed at sched round %d; forked from replica %d on stream %d"
              c.rep_index round from_replica stream))
  in
  (* Budgets and interruption. The engine polls between moves, so the
     in-flight move always completes; the first tripped condition
     sticks. In a portfolio, a wall-clock or interrupt stop spreads to
     the whole fleet so the run directory freezes in one coherent
     state. A move budget does NOT spread: every replica trips its own
     at a deterministic point of its own trajectory, and the barrier
     drops a stopped replica from the active set, so the survivors'
     exchange rounds still trip — fleet results under a move budget
     stay scheduling-independent. *)
  let watch = Spr_util.Clock.start () in
  let stop_reason = ref None in
  let should_stop ~moves ~accepted =
    (match !stop_reason with
    | Some _ -> ()
    | None ->
      stop_reason :=
        (if interrupt_requested () then Some Interrupt
         else if (match config.budget.poll with Some f -> f () | None -> false) then
           Some Interrupt
         else
           match config.budget.max_moves with
           | Some m when moves >= m -> Some Move_budget
           | _ -> (
             match config.budget.time_budget with
             | Some b when Spr_util.Clock.elapsed watch >= b -> Some Time_budget
             | _ -> (
               match config.budget.stop_after_accepted with
               | Some k when accepted >= k -> Some Interrupt
               | _ -> None)));
      (match !stop_reason with
      | Some (Time_budget | Interrupt) when ctx <> None -> request_interrupt ()
      | Some Move_budget | Some Interrupt | Some Time_budget | None -> ()));
    !stop_reason <> None
  in
  let track_best =
    config.persistence.run_dir <> None
    || config.budget.time_budget <> None
    || config.budget.max_moves <> None
    || config.budget.stop_after_accepted <> None
    || config.budget.poll <> None
  in
  let ckpt_dir =
    match config.persistence.run_dir with
    | None -> None
    | Some dir ->
      Spr_util.Persist.ensure_dir dir;
      Some (dir, ref (Checkpoint.V2.next_seq ?replica dir))
  in
  let on_checkpoint ~at (snap : Spr_anneal.Engine.snapshot) =
    if track_best then begin
      (* Canonicalize the incremental STA so the snapshot, the continued
         run, and any resumed run all proceed from the same timing
         state. *)
      Sta.full_update s.sta;
      let metric = best_metric ~rs:s.rs ~sta:s.sta in
      if metric < fst !best then best := (metric, Some (Checkpoint.to_string s.rs));
      (* After a fleet interrupt a replica may have been released from an
         untripped exchange round without the broadcast it would have
         received uninterrupted, so everything past that point is off the
         uninterrupted trajectory. Suppressing post-interrupt snapshot
         FILES (portfolio runs only) makes resume replay from the last
         faithful boundary — the property that lets a killed fleet
         reproduce the uninterrupted run exactly. The in-memory best
         keeps updating: it only feeds this run's reported result, never
         a resume. *)
      match ckpt_dir with
      | Some _ when ctx <> None && interrupt_requested () -> ()
      | None -> ()
      | Some (dir, seq) ->
        let due =
          match at with
          | `Boundary ->
            snap.Spr_anneal.Engine.s_temp_index mod config.persistence.snapshot_every = 0
          | `Stop -> config.persistence.final_checkpoint
        in
        if due then begin
          let best_cost, best_layout = !best in
          let payload =
            {
              Checkpoint.V2.engine = snap;
              rng_state = Spr_util.Rng.state rng;
              weights = Spr_anneal.Weights.dump s.weights;
              dyn_flags = Dynamics.perturbed_flags s.dyn;
              dyn_samples = Dynamics.samples s.dyn;
              accepted_since_audit = s.accepted_since_audit;
              memo = Rs.memo s.rs;
              best_cost;
              best_layout =
                (match best_layout with Some t -> t | None -> Checkpoint.to_string s.rs);
            }
          in
          let path =
            Checkpoint.V2.write ?replica ~dir ~seq:!seq ~keep:config.persistence.snapshot_keep
              payload ~current:s.rs
          in
          incr seq;
          Log.debug (fun m -> m "checkpoint %s" path)
        end
    end
  in
  let resume = Option.map (fun (r : resume) -> r.Checkpoint.V2.data.Checkpoint.V2.engine) resume in
  let anneal_report =
    Spr_anneal.Engine.run ?config:config.anneal ?resume ?start_temperature ~on_temperature
      ~on_checkpoint
      ~should_stop ~rng
      ~cost:(fun () -> session_cost s)
      ~propose:(fun rng -> Move_pipeline.propose s.pipeline rng)
      ~accept:(fun () ->
        Dynamics.note_accepted_cells s.dyn (Move_pipeline.last_cells s.pipeline);
        Move_pipeline.accept s.pipeline;
        if config.validation.validate then begin
          s.accepted_since_audit <- s.accepted_since_audit + 1;
          if s.accepted_since_audit >= config.validation.validate_every then begin
            s.accepted_since_audit <- 0;
            validate_now s
          end
        end)
      ~reject:(fun () -> Move_pipeline.reject s.pipeline)
      ~n:(Spr_netlist.Netlist.n_cells nl)
      ()
  in
  (anneal_report, !stop_reason)

(* Close out a layout for delivery: route whatever is still queued with
   unbounded retries, then refresh the timing picture from scratch. *)
let finalize ~(config : Config.t) rs sta =
  Router.route_all ~config:config.router ~passes:3 rs;
  Sta.full_update sta

(* GC collections since [gc0]. OCaml 5 counts each collection once for
   all domains (every domain stops for it), so the counts are
   fleet-wide. *)
let with_gc_counts (gc0 : Gc.stat) (pl : Spr_obs.Report.pipeline) =
  let gc1 = Gc.quick_stat () in
  {
    pl with
    Spr_obs.Report.pl_minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    pl_major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

let run_session ?resume ?ctx ?start_temperature ~(config : Config.t) ~rng ~t_start s =
  let gc0 = Gc.quick_stat () in
  let nl = P.netlist s.place in
  let best =
    ref
      (match resume with
      | Some (r : resume) ->
        ( r.Checkpoint.V2.data.Checkpoint.V2.best_cost,
          Some r.Checkpoint.V2.data.Checkpoint.V2.best_layout )
      | None -> (infinity, None))
  in
  let anneal_report, stop_reason =
    Spr_obs.Obs.span ~name:"anneal" (fun () ->
        anneal_session ?resume ?ctx ?start_temperature ~config ~rng ~best s)
  in
  let status =
    match stop_reason with None -> Completed | Some reason -> Interrupted reason
  in
  (* For interrupted runs, deliver the best-so-far layout; the final
     checkpoint (already written) still holds the in-flight one, so a
     resume continues mid-schedule regardless. *)
  let place, rs, sta =
    match status with
    | Completed -> (s.place, s.rs, s.sta)
    | Interrupted reason -> (
      Log.info (fun m -> m "run interrupted (%s)" (stop_reason_to_string reason));
      let live = best_metric ~rs:s.rs ~sta:s.sta in
      match !best with
      | best_cost, Some text when best_cost < live -> (
        match Checkpoint.of_string nl text with
        | Ok best_rs -> (Rs.place best_rs, best_rs, Sta.create config.delay_model best_rs)
        | Error e ->
          Log.warn (fun m -> m "best-so-far layout failed to decode (%s); using current" e);
          (s.place, s.rs, s.sta))
      | _ -> (s.place, s.rs, s.sta))
  in
  Spr_obs.Obs.span ~name:"finalize" (fun () -> finalize ~config rs sta);
  if config.validation.validate && rs == s.rs then validate_now s;
  let profile = Move_pipeline.profile s.pipeline in
  let dynamics = Dynamics.samples s.dyn in
  let cpu_seconds = Sys.time () -. t_start in
  let critical_delay = Sta.critical_delay sta in
  let g = Rs.g_count rs and d = Rs.d_count rs in
  let best_cost = best_metric ~rs ~sta in
  (* A serial run has no separate wall clock: one domain, one replica,
     so cpu IS wall. The portfolio report overrides this with the
     fleet-wide elapsed time. *)
  let report =
    {
      Spr_obs.Report.r_label = run_label config;
      r_seed = config.seed;
      r_replicas = 1;
      r_status = Outcome.status_to_string status;
      r_fully_routed = Rs.fully_routed rs;
      r_g_unrouted = g;
      r_d_unrouted = d;
      r_critical_delay_ns = critical_delay;
      r_best_cost = best_cost;
      r_initial_cost = anneal_report.Spr_anneal.Engine.initial_cost;
      r_final_cost = anneal_report.Spr_anneal.Engine.final_cost;
      r_moves = anneal_report.Spr_anneal.Engine.n_moves;
      r_temperatures = anneal_report.Spr_anneal.Engine.n_temperatures;
      r_exchange_rounds = 0;
      r_cpu_seconds = cpu_seconds;
      r_wall_seconds = cpu_seconds;
      r_pipeline = Some (with_gc_counts gc0 (Profile.to_pipeline profile));
      r_route = Some (route_summary rs);
      r_dynamics = List.map Dynamics.to_row dynamics;
      r_metrics = Profile.metrics_snapshot profile;
    }
  in
  (* The registry dump closes the replica's own event stream; the trace
     assembler appends the replica_end marker after it. *)
  if Spr_obs.Obs.recording () then
    Spr_obs.Obs.emit (Spr_obs.Trace.Metrics_dump report.Spr_obs.Report.r_metrics);
  {
    place;
    route = rs;
    sta;
    critical_delay;
    g;
    d;
    fully_routed = Rs.fully_routed rs;
    anneal_report;
    dynamics;
    profile;
    cpu_seconds;
    status;
    best_cost;
    report;
    events = [];
  }

let run_fresh ?ctx ?seed_place ?start_temperature ~(config : Config.t) arch nl =
  let rng = Spr_util.Rng.stream ~seed:config.seed ~index:config.parallel.stream in
  (* A seeded run starts from the caller's placement (plain data, so
     portfolio replicas never share a mutable layout) instead of the
     random one; the rng simply skips the shuffle draws. *)
  let initial_place =
    match seed_place with
    | None -> P.create arch nl ~rng
    | Some (slots, pinmaps) -> P.create_from arch nl ~slots ~pinmaps
  in
  match initial_place with
  | Error e -> Error (Invalid_design e)
  | Ok place ->
    let t_start = Sys.time () in
    let rs = Rs.create place in
    (* Start-up transient: give every net a first chance at a (poor)
       route in the random placement. *)
    Spr_obs.Obs.span ~name:"route.initial" (fun () ->
        Router.route_all ~config:config.router ~passes:2 rs);
    let sta = Sta.create config.delay_model rs in
    let initial_delay = Float.max 1e-6 (Sta.critical_delay sta) in
    let weights =
      Spr_anneal.Weights.create ~g_per_net:config.weights.g_per_net
        ~d_per_net:config.weights.d_per_net ~t_emphasis:config.weights.t_emphasis
        ~initial_delay ()
    in
    let pipeline =
      Move_pipeline.create ~router:(timing_router ~config ~sta nl)
        ~pinmap_move_prob:config.moves.pinmap_move_prob
        ~enable_pinmap_moves:config.moves.enable_pinmap_moves
        ~max_swap_tries:config.moves.max_swap_tries ~place ~rs ~sta ~weights
        ~journal:(J.create ()) ()
    in
    let s =
      {
        place;
        rs;
        sta;
        weights;
        pipeline;
        dyn = Dynamics.create ~n_cells:(Spr_netlist.Netlist.n_cells nl);
        accepted_since_audit = 0;
      }
    in
    Ok (run_session ?ctx ?start_temperature ~config ~rng ~t_start s)

let run_resumed ?ctx ~(config : Config.t) ~(resume : resume) nl =
  let t_start = Sys.time () in
  let data = resume.Checkpoint.V2.data in
  let rs = resume.Checkpoint.V2.route in
  let place = Rs.place rs in
  let n_cells = Spr_netlist.Netlist.n_cells nl in
  if Array.length data.Checkpoint.V2.dyn_flags <> n_cells then
    Error
      (Resume_failed
         (Printf.sprintf "%s: snapshot is for a %d-cell design, netlist has %d"
            resume.Checkpoint.V2.path
            (Array.length data.Checkpoint.V2.dyn_flags)
            n_cells))
  else begin
    (* The snapshot was written from a canonical ([full_update]d) STA, so
       rebuilding from scratch reproduces the exact timing state the
       interrupted run carried. *)
    let sta = Sta.create config.delay_model rs in
    let rng = Spr_util.Rng.of_state data.Checkpoint.V2.rng_state in
    let weights = Spr_anneal.Weights.restore data.Checkpoint.V2.weights in
    let pipeline =
      Move_pipeline.create ~router:(timing_router ~config ~sta nl)
        ~pinmap_move_prob:config.moves.pinmap_move_prob
        ~enable_pinmap_moves:config.moves.enable_pinmap_moves
        ~max_swap_tries:config.moves.max_swap_tries ~place ~rs ~sta ~weights
        ~journal:(J.create ()) ()
    in
    let s =
      {
        place;
        rs;
        sta;
        weights;
        pipeline;
        dyn =
          Dynamics.restore ~n_cells ~flags:data.Checkpoint.V2.dyn_flags
            ~samples:data.Checkpoint.V2.dyn_samples;
        accepted_since_audit = data.Checkpoint.V2.accepted_since_audit;
      }
    in
    (* Seed the scheduler with the restored dynamics series so a resumed
       replica's predictor fits exactly the series the uninterrupted run
       would have. The metric is reconstructed bit-identically: the
       snapshot's percentage fields recover the integer unrouted counts
       exactly (they are < 0.5 ulp from an integer), and the rebuilt
       expression matches [best_metric] operation for operation. *)
    (match ctx with
    | None -> ()
    | Some c ->
      let nr = float_of_int (max 1 (Rs.n_routable rs)) in
      Scheduler.preload c.rep_sched ~replica:c.rep_index
        (List.map
           (fun (d : Dynamics.sample) ->
             let g =
               int_of_float (Float.round (d.Dynamics.pct_nets_globally_unrouted /. 100.0 *. nr))
             in
             let dd = int_of_float (Float.round (d.Dynamics.pct_nets_unrouted /. 100.0 *. nr)) in
             let metric = (float_of_int (g + dd) *. 1e9) +. d.Dynamics.critical_delay in
             (d.Dynamics.dyn_temp_index, metric, d.Dynamics.acceptance))
           data.Checkpoint.V2.dyn_samples));
    Ok (run_session ~resume ?ctx ~config ~rng ~t_start s)
  end

(* --- trace assembly ---
   One shared assembler produces [run_start :: replica streams ::
   exchange records :: run_end] for serial and portfolio runs alike, so
   a one-replica portfolio's trace is bit-identical to the serial
   one. *)

let replica_end_event ~replica (r : result) =
  {
    Spr_obs.Trace.ev_replica = replica;
    ev =
      Spr_obs.Trace.Replica_end
        {
          status = Outcome.status_to_string r.status;
          g = r.g;
          d = r.d;
          delay_ns = r.critical_delay;
          best_cost = r.best_cost;
        };
  }

let assemble_trace ~(config : Config.t) ~nl ~replicas ~streams ~exchanges ~scheds ~status ~g ~d
    ~delay_ns ~best_cost ~wall_seconds =
  let fleet ev = { Spr_obs.Trace.ev_replica = -1; ev } in
  let start =
    fleet
      (Spr_obs.Trace.Run_start
         {
           label = run_label config;
           seed = config.seed;
           replicas;
           n_cells = Spr_netlist.Netlist.n_cells nl;
           n_nets = Spr_netlist.Netlist.n_nets nl;
         })
  in
  let rounds =
    List.map
      (fun (x : Portfolio.round_result) ->
        fleet
          (Spr_obs.Trace.Exchange
             {
               round = x.Portfolio.xr_round;
               from_replica = x.Portfolio.xr_best_replica;
               metric = x.Portfolio.xr_best_metric;
             }))
      exchanges
  in
  (* Racing decision rounds: a kill row (the verdict) and a clone row
     (the domain reallocation) per killed replica, in round order. *)
  let sched_rows =
    List.concat_map
      (fun (r : Scheduler.round_record) ->
        List.concat_map
          (fun (k : Scheduler.kill) ->
            [
              fleet
                (Spr_obs.Trace.Sched_kill
                   {
                     round = r.Scheduler.sr_round;
                     replica = k.Scheduler.k_replica;
                     leader = r.Scheduler.sr_leader;
                     metric = r.Scheduler.sr_metric;
                   });
              fleet
                (Spr_obs.Trace.Sched_clone
                   {
                     round = r.Scheduler.sr_round;
                     replica = k.Scheduler.k_replica;
                     from_replica = r.Scheduler.sr_leader;
                     stream = k.Scheduler.k_stream;
                   });
            ])
          r.Scheduler.sr_kills)
      scheds
  in
  let stop =
    fleet (Spr_obs.Trace.Run_end { status; g; d; delay_ns; best_cost; wall_seconds })
  in
  (start :: List.concat streams) @ rounds @ sched_rows @ [ stop ]

let trace_events ~config nl (r : result) =
  assemble_trace ~config ~nl ~replicas:1
    ~streams:[ r.events @ [ replica_end_event ~replica:0 r ] ]
    ~exchanges:[] ~scheds:[]
    ~status:(Outcome.status_to_string r.status)
    ~g:r.g ~d:r.d ~delay_ns:r.critical_delay ~best_cost:r.best_cost
    ~wall_seconds:r.cpu_seconds

let write_report_file path report =
  Spr_util.Persist.atomic_write path
    (Spr_obs.Json.to_string ~indent:true (Spr_obs.Report.to_json report) ^ "\n")

let recording_wanted (config : Config.t) =
  config.Config.obs.Config.record
  || config.Config.obs.Config.trace_path <> None
  || config.Config.obs.Config.on_event <> None

(* The recording sink for one replica: a live [on_event] hook gets a
   streaming sink (buffered copy still feeds trace assembly); plain
   recording buffers in memory; otherwise the null sink keeps every
   instrumentation point a strict no-op. The hook runs on the emitting
   domain — portfolio replicas share it, so it must do its own
   locking. *)
let replica_sink (config : Config.t) =
  match config.Config.obs.Config.on_event with
  | Some f when recording_wanted config -> Spr_obs.Sink.stream f
  | _ -> if recording_wanted config then Spr_obs.Sink.memory () else Spr_obs.Sink.null

let run ?(config = Config.default) ?resume ?seed_place ?start_temperature arch nl =
  match Config.validated config with
  | Error msg -> Error (Invalid_config msg)
  | Ok config -> (
    match Spr_netlist.Levelize.run nl with
    | Error e -> Error (Invalid_design e)
    | Ok _ -> (
      let sink = replica_sink config in
      let outcome =
        try
          Spr_obs.Obs.with_recording ~sink ~replica:0 (fun () ->
              match resume with
              | Some resume -> run_resumed ~config ~resume nl
              | None -> run_fresh ?seed_place ?start_temperature ~config arch nl)
        with Audit_failure findings -> Error (Audit_failed findings)
      in
      match outcome with
      | Error e -> Error e
      | Ok r ->
        let r = { r with events = Spr_obs.Sink.events sink } in
        (match config.obs.trace_path with
        | Some path -> Spr_obs.Trace.to_file path (trace_events ~config nl r)
        | None -> ());
        (match config.obs.report_path with
        | Some path -> write_report_file path r.report
        | None -> ());
        Ok r))

let run_exn ?config ?resume ?seed_place ?start_temperature arch nl =
  match run ?config ?resume ?seed_place ?start_temperature arch nl with
  | Ok r -> r
  | Error e -> raise (Tool_error e)

(* --- parallel portfolio --- *)

type portfolio_result = {
  p_best_replica : int;
  p_results : result array;
  p_profile : Profile.t;
  p_exchanges : Portfolio.round_result list;
  p_scheds : Scheduler.round_record list;
  p_wall_seconds : float;
  p_report : Spr_obs.Report.t;
}

let best_result p = p.p_results.(p.p_best_replica)

let portfolio_trace_events ~config nl (p : portfolio_result) =
  let best = best_result p in
  assemble_trace ~config ~nl
    ~replicas:(Array.length p.p_results)
    ~streams:
      (Array.to_list
         (Array.mapi (fun k r -> r.events @ [ replica_end_event ~replica:k r ]) p.p_results))
    ~exchanges:p.p_exchanges ~scheds:p.p_scheds
    ~status:(Outcome.status_to_string best.status)
    ~g:best.g ~d:best.d ~delay_ns:best.critical_delay ~best_cost:best.best_cost
    ~wall_seconds:p.p_wall_seconds

let run_portfolio ?(config = Config.default) ?resume_dir ?seed_place ?start_temperature arch nl =
  match Config.validated config with
  | Error msg -> Error (Invalid_config msg)
  | Ok config -> (
    match Spr_netlist.Levelize.run nl with
    | Error e -> Error (Invalid_design e)
    | Ok _ ->
      let replicas = config.parallel.replicas in
      (* A previous fleet (or fault injection) may have left the stop
         flag raised; a new fleet starts clean. Signal handlers can
         re-raise it at any time. *)
      reset_interrupt ();
      let wall = Spr_util.Clock.start () in
      let gc0 = Gc.quick_stat () in
      let sched =
        match config.parallel.scheduler.Config.kind with
        | `Barrier ->
          let history =
            match resume_dir with Some dir -> Checkpoint.Exchange.load_all ~dir | None -> []
          in
          let persist =
            match config.persistence.run_dir with
            | Some dir when replicas > 1 && config.parallel.exchange <> Portfolio.Independent ->
              fun r -> ignore (Checkpoint.Exchange.write ~dir r)
            | _ -> fun _ -> ()
          in
          Scheduler.barrier
            (Portfolio.create ~replicas ~exchange:config.parallel.exchange ~history ~persist
               ~frozen:interrupt_requested ())
        | `Racing ->
          let sc = config.parallel.scheduler in
          let history =
            match resume_dir with
            | Some dir when sc.Config.race_sync -> Checkpoint.Sched.load_all ~dir
            | _ -> []
          in
          let persist =
            match config.persistence.run_dir with
            | Some dir when replicas > 1 && sc.Config.race_sync ->
              fun r -> ignore (Checkpoint.Sched.write ~dir r)
            | _ -> fun _ -> ()
          in
          Scheduler.racing
            {
              Scheduler.replicas;
              warmup = sc.Config.race_warmup;
              every = sc.Config.race_every;
              (* CLI margin is in unrouted-net units; the metric counts
                 a net as 1e9 (delay breaks ties below that). *)
              margin = sc.Config.race_margin *. 1e9;
              horizon = sc.Config.race_horizon;
              sync = sc.Config.race_sync;
            }
            ~history ~persist ~frozen:interrupt_requested ()
      in
      let sinks = Array.init replicas (fun _ -> replica_sink config) in
      let worker k =
        (* One replica IS the serial path: no coordination, the
           configured stream, unprefixed snapshot files — bit-identical
           to [run]. With more replicas, replica [k] draws stream [k],
           so the winner can be reproduced standalone via
           [Config.with_stream k]. *)
        let config =
          if replicas = 1 then config
          else { config with Config.parallel = { config.Config.parallel with Config.stream = k } }
        in
        let ctx = if replicas = 1 then None else Some { rep_index = k; rep_sched = sched } in
        let body () =
          Spr_obs.Obs.with_recording ~sink:sinks.(k) ~replica:k (fun () ->
              try
                match resume_dir with
                | Some dir -> (
                  let replica = if replicas = 1 then None else Some k in
                  match Checkpoint.V2.load_latest ?replica nl ~dir with
                  | Ok resume -> run_resumed ?ctx ~config ~resume nl
                  | Error e ->
                    (* No loadable snapshot for this replica: restart it
                       from scratch. Determinism makes the restart replay
                       the lost trajectory exactly, consuming any recorded
                       exchange rounds along the way. *)
                    Log.info (fun m -> m "replica %d: %s; starting fresh" k e);
                    run_fresh ?ctx ?seed_place ?start_temperature ~config arch nl)
                | None -> run_fresh ?ctx ?seed_place ?start_temperature ~config arch nl
              with Audit_failure findings -> Error (Audit_failed findings))
        in
        if replicas = 1 then body ()
        else Fun.protect ~finally:(fun () -> Scheduler.finished sched ~replica:k) body
      in
      let outcomes = Portfolio.run_replicas ~replicas worker in
      (* An exception escaping a replica is a bug in this layer, not a
         run outcome — re-raise the first. *)
      Array.iter (function Error e -> raise e | Ok _ -> ()) outcomes;
      let settled = Array.map (function Ok r -> r | Error _ -> assert false) outcomes in
      match Array.find_map (function Error e -> Some e | Ok _ -> None) settled with
      | Some e -> Error e
      | None ->
        let results = Array.map (function Ok r -> r | Error _ -> assert false) settled in
        let results =
          Array.mapi (fun k (r : result) -> { r with events = Spr_obs.Sink.events sinks.(k) }) results
        in
        let best = ref 0 in
        Array.iteri
          (fun i (r : result) -> if r.best_cost < results.(!best).best_cost then best := i)
          results;
        let merged = Profile.create () in
        Array.iter (fun (r : result) -> Profile.absorb merged r.profile) results;
        let exchanges = Scheduler.exchanges sched in
        let scheds = Scheduler.rounds sched in
        let wall_seconds = Spr_util.Clock.elapsed wall in
        (* The fleet report: the winner's layout-facing numbers, the
           merged pipeline/metrics, fleet-wide clocks. Under racing,
           "rounds" counts deciding (killing) rounds. *)
        let p_report =
          {
            results.(!best).report with
            Spr_obs.Report.r_replicas = replicas;
            r_exchange_rounds = List.length exchanges + List.length scheds;
            r_cpu_seconds =
              Array.fold_left (fun acc (r : result) -> acc +. r.cpu_seconds) 0.0 results;
            r_wall_seconds = wall_seconds;
            r_pipeline = Some (with_gc_counts gc0 (Profile.to_pipeline merged));
            r_metrics = Profile.metrics_snapshot merged;
          }
        in
        let p =
          {
            p_best_replica = !best;
            p_results = results;
            p_profile = merged;
            p_exchanges = exchanges;
            p_scheds = scheds;
            p_wall_seconds = wall_seconds;
            p_report;
          }
        in
        (match config.obs.trace_path with
        | Some path -> Spr_obs.Trace.to_file path (portfolio_trace_events ~config nl p)
        | None -> ());
        (match config.obs.report_path with
        | Some path -> write_report_file path p_report
        | None -> ());
        Ok p)

let run_portfolio_exn ?config ?resume_dir ?seed_place ?start_temperature arch nl =
  match run_portfolio ?config ?resume_dir ?seed_place ?start_temperature arch nl with
  | Ok r -> r
  | Error e -> raise (Tool_error e)

let audit_result (r : result) = Spr_check.Audit.run_all ~sta:r.sta r.route
