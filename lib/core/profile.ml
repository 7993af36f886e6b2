module Metrics = Spr_obs.Metrics

type phase = Propose | Rip_up | Global | Detail | Retime | Decide

let phases = [ Propose; Rip_up; Global; Detail; Retime; Decide ]

let n_phases = List.length phases

let phase_index = function
  | Propose -> 0
  | Rip_up -> 1
  | Global -> 2
  | Detail -> 3
  | Retime -> 4
  | Decide -> 5

let phase_name = function
  | Propose -> "propose"
  | Rip_up -> "rip-up"
  | Global -> "reroute-global"
  | Detail -> "reroute-detail"
  | Retime -> "retime"
  | Decide -> "decide"

(* The profile is a facade over a metrics registry: every tally and
   phase clock lives in a registry cell (one store per update, same
   hot-path cost as the mutable record it replaces), so a registry
   snapshot is the whole pipeline breakdown. The router attempt/success
   tallies stay in the raw [Router.counters] record the routers mutate;
   they are mirrored into registry counters at snapshot time. *)
type t = {
  reg : Metrics.t;
  phase_times : Metrics.gauge array;  (* cumulative seconds per phase *)
  phase_words : Metrics.gauge array;  (* cumulative minor-heap words per phase *)
  phase_calls : Metrics.counter array;  (* timed brackets per phase *)
  counters : Spr_route.Router.counters;
  m_global_attempts : Metrics.counter;
  m_global_routed : Metrics.counter;
  m_detail_attempts : Metrics.counter;
  m_detail_routed : Metrics.counter;
  m_moves : Metrics.counter;  (* proposals that formed a transaction *)
  m_null_moves : Metrics.counter;  (* proposals that found no legal move *)
  m_ripped : Metrics.counter;
  m_retimed : Metrics.counter;  (* dirty nets handed to the analyzer *)
  m_accepts : Metrics.counter;
  m_rejects : Metrics.counter;
  m_total : Metrics.gauge;  (* wall seconds inside move transactions *)
}

let create () =
  let reg = Metrics.create () in
  let phase_times =
    Array.of_list
      (List.map (fun p -> Metrics.gauge reg ("pipeline.phase." ^ phase_name p ^ ".seconds")) phases)
  in
  let phase_words =
    Array.of_list
      (List.map
         (fun p -> Metrics.gauge reg ("pipeline.phase." ^ phase_name p ^ ".minor_words"))
         phases)
  in
  let phase_calls =
    Array.of_list
      (List.map (fun p -> Metrics.counter reg ("pipeline.phase." ^ phase_name p ^ ".calls")) phases)
  in
  {
    reg;
    phase_times;
    phase_words;
    phase_calls;
    counters = Spr_route.Router.fresh_counters ();
    m_moves = Metrics.counter reg "pipeline.moves";
    m_null_moves = Metrics.counter reg "pipeline.null_moves";
    m_accepts = Metrics.counter reg "pipeline.accepts";
    m_rejects = Metrics.counter reg "pipeline.rejects";
    m_ripped = Metrics.counter reg "pipeline.ripped_nets";
    m_retimed = Metrics.counter reg "pipeline.retimed_nets";
    m_total = Metrics.gauge reg "pipeline.total_seconds";
    m_global_attempts = Metrics.counter reg "router.global.attempts";
    m_global_routed = Metrics.counter reg "router.global.routed";
    m_detail_attempts = Metrics.counter reg "router.detail.attempts";
    m_detail_routed = Metrics.counter reg "router.detail.routed";
  }

let registry t = t.reg

(* Refresh the router-counter mirrors from the raw record the routers
   mutate; called before any registry export. *)
let sync_mirrors t =
  let c = t.counters in
  Metrics.counter_set t.m_global_attempts c.Spr_route.Router.c_global_attempts;
  Metrics.counter_set t.m_global_routed c.Spr_route.Router.c_global_routed;
  Metrics.counter_set t.m_detail_attempts c.Spr_route.Router.c_detail_attempts;
  Metrics.counter_set t.m_detail_routed c.Spr_route.Router.c_detail_routed

let metrics_snapshot t =
  sync_mirrors t;
  Metrics.snapshot t.reg

(* Fold another profile into this one; the portfolio merges per-replica
   profiles into a fleet-wide breakdown this way. The mirrors are
   rebuilt from the merged raw record at the next export, so absorbing
   their stale registry values is harmless. *)
let absorb t other =
  Metrics.absorb t.reg other.reg;
  let c = t.counters and oc = other.counters in
  c.Spr_route.Router.c_global_attempts <-
    c.Spr_route.Router.c_global_attempts + oc.Spr_route.Router.c_global_attempts;
  c.Spr_route.Router.c_global_routed <-
    c.Spr_route.Router.c_global_routed + oc.Spr_route.Router.c_global_routed;
  c.Spr_route.Router.c_detail_attempts <-
    c.Spr_route.Router.c_detail_attempts + oc.Spr_route.Router.c_detail_attempts;
  c.Spr_route.Router.c_detail_routed <-
    c.Spr_route.Router.c_detail_routed + oc.Spr_route.Router.c_detail_routed;
  sync_mirrors t

let record t phase ~seconds ~words =
  let i = phase_index phase in
  Metrics.gauge_add t.phase_times.(i) seconds;
  Metrics.gauge_add t.phase_words.(i) words;
  Metrics.incr t.phase_calls.(i)

(* [Gc.minor_words] counts the calling domain's allocations only, so a
   replica's brackets never see another domain's garbage. The word
   reads sit inside the clock reads, so the boxed clock values do not
   count against the phase. *)
let time t phase f =
  let t0 = Spr_util.Clock.now () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  record t phase ~seconds:(Spr_util.Clock.now () -. t0) ~words:(w1 -. w0);
  r

let add_total t dt = Metrics.gauge_add t.m_total dt

let counters t = t.counters

let phase_seconds t phase = Metrics.gauge_value t.phase_times.(phase_index phase)

let phase_calls t phase = Metrics.counter_value t.phase_calls.(phase_index phase)

let phase_words t phase = Metrics.gauge_value t.phase_words.(phase_index phase)

let total_words t = Array.fold_left (fun acc g -> acc +. Metrics.gauge_value g) 0.0 t.phase_words

let total_seconds t = Metrics.gauge_value t.m_total

let phase_sum t = Array.fold_left (fun acc g -> acc +. Metrics.gauge_value g) 0.0 t.phase_times

let t_moves t = Metrics.counter_value t.m_moves

let t_null_moves t = Metrics.counter_value t.m_null_moves

let t_accepts t = Metrics.counter_value t.m_accepts

let t_rejects t = Metrics.counter_value t.m_rejects

let t_ripped_nets t = Metrics.counter_value t.m_ripped

let t_retimed_nets t = Metrics.counter_value t.m_retimed

(* Fraction of the bracketed move time the phase brackets account for;
   the remainder is inter-phase bookkeeping. 1.0 when no move ran. *)
let coverage t =
  let total = total_seconds t in
  if total <= 0.0 then 1.0 else phase_sum t /. total

(* Per-temperature deltas: capture the cumulative cells at a batch
   boundary and subtract at the next one. *)
type mark = {
  mark_times : float array;
  mark_words : float array;
  mark_total : float;
  mark_moves : int;
}

let mark t =
  {
    mark_times = Array.map Metrics.gauge_value t.phase_times;
    mark_words = Array.map Metrics.gauge_value t.phase_words;
    mark_total = total_seconds t;
    mark_moves = t_moves t;
  }

type delta = {
  d_phase_seconds : float array;
  d_phase_words : float array;
  d_move_seconds : float;
  d_moves : int;
}

let since t m =
  let diff gauges marked = Array.mapi (fun i g -> Metrics.gauge_value g -. marked.(i)) gauges in
  {
    d_phase_seconds = diff t.phase_times m.mark_times;
    d_phase_words = diff t.phase_words m.mark_words;
    d_move_seconds = total_seconds t -. m.mark_total;
    d_moves = t_moves t - m.mark_moves;
  }

let to_pipeline t =
  let c = t.counters in
  {
    Spr_obs.Report.pl_moves = t_moves t;
    pl_null_moves = t_null_moves t;
    pl_accepts = t_accepts t;
    pl_rejects = t_rejects t;
    pl_ripped_nets = t_ripped_nets t;
    pl_retimed_nets = t_retimed_nets t;
    pl_total_seconds = total_seconds t;
    pl_phases =
      List.map
        (fun p ->
          {
            Spr_obs.Report.ph_name = phase_name p;
            ph_seconds = phase_seconds t p;
            ph_calls = phase_calls t p;
            ph_words = phase_words t p;
          })
        phases;
    pl_global_attempts = c.Spr_route.Router.c_global_attempts;
    pl_global_routed = c.Spr_route.Router.c_global_routed;
    pl_detail_attempts = c.Spr_route.Router.c_detail_attempts;
    pl_detail_routed = c.Spr_route.Router.c_detail_routed;
    pl_minor_collections = 0;
    pl_major_collections = 0;
  }

let pp ppf t =
  let c = t.counters in
  let moves = t_moves t in
  Format.fprintf ppf "move pipeline: %d moves (%d null proposals), %d accepted, %d rejected@."
    moves (t_null_moves t) (t_accepts t) (t_rejects t);
  Format.fprintf ppf "%-16s %12s %10s %12s %12s@." "phase" "time(ms)" "calls" "ns/move"
    "words/move";
  let per_move x = if moves = 0 then 0.0 else x /. float_of_int moves in
  List.iter
    (fun p ->
      let s = phase_seconds t p in
      Format.fprintf ppf "%-16s %12.2f %10d %12.0f %12.0f@." (phase_name p) (s *. 1e3)
        (phase_calls t p) (per_move (s *. 1e9)) (per_move (phase_words t p)))
    phases;
  Format.fprintf ppf "%-16s %12.2f %10d %12.0f %12.0f@." "total" (total_seconds t *. 1e3) moves
    (per_move (total_seconds t *. 1e9)) (per_move (total_words t));
  Format.fprintf ppf "phase coverage: %.1f%% of bracketed move time@." (100.0 *. coverage t);
  Format.fprintf ppf
    "counters: ripped %d nets, global %d/%d routed/attempted, detail %d/%d, retimed %d nets@."
    (t_ripped_nets t) c.Spr_route.Router.c_global_routed c.Spr_route.Router.c_global_attempts
    c.Spr_route.Router.c_detail_routed c.Spr_route.Router.c_detail_attempts (t_retimed_nets t)

let note_move t = Metrics.incr t.m_moves

let note_null_move t = Metrics.incr t.m_null_moves

let note_accept t = Metrics.incr t.m_accepts

let note_reject t = Metrics.incr t.m_rejects

let add_ripped t n = Metrics.add t.m_ripped n

let add_retimed t n = Metrics.add t.m_retimed n
