(** Per-temperature layout dynamics, the instrumentation behind the
    paper's Figure 6.

    At each temperature we record the fraction of cells perturbed (moved
    by an accepted move), the fraction of nets globally unrouted, and the
    fraction of nets unrouted altogether; the difference of the last two
    is the fraction globally routed but not detail routed. *)

type sample = {
  dyn_temp_index : int;
  dyn_temperature : float;
  pct_cells_perturbed : float;
  pct_nets_globally_unrouted : float;
  pct_nets_unrouted : float;
  acceptance : float;
  cost : float;
  critical_delay : float;
  phase_seconds : float array;
      (** Wall seconds spent in each move-pipeline phase during this
          temperature, indexed by {!Profile.phase_index}; [[||]] for
          samples recorded without profiling (e.g. decoded from a legacy
          checkpoint). *)
  phase_words : float array;
      (** Minor-heap words per move allocated in each phase during this
          temperature; same indexing, [[||]] under the same conditions
          and for checkpoints written before allocation was tracked. *)
}

type t

val create : n_cells:int -> t

val note_accepted_cells : t -> int list -> unit
(** Mark cells perturbed by an accepted move. *)

val flush :
  ?phase_seconds:float array ->
  ?phase_words:float array ->
  t ->
  temp_index:int ->
  temperature:float ->
  g_frac:float ->
  d_frac:float ->
  acceptance:float ->
  cost:float ->
  critical_delay:float ->
  unit
(** Close the current temperature: append a sample and reset the
    perturbation marks. [phase_seconds] (default [[||]]) is the
    per-phase time spent inside move transactions at this temperature,
    from {!Profile.since}; [phase_words] (default [[||]]) the per-phase
    minor words per move over the same span. *)

val samples : t -> sample list
(** In temperature order. *)

val last_sample : t -> sample option
(** The most recently flushed sample, without walking the series. *)

val perturbed_flags : t -> bool array
(** Copy of the per-cell perturbation marks accumulated since the last
    {!flush} — the mid-temperature state a resumable checkpoint must
    carry. *)

val restore : n_cells:int -> flags:bool array -> samples:sample list -> t
(** Recorder continuing exactly from a {!perturbed_flags} /
    {!samples} capture. Raises [Invalid_argument] if [flags] is not
    [n_cells] long. *)

val to_row : sample -> Spr_obs.Report.dyn_row
(** The sample as a report dynamics row (phase columns named with
    {!Profile.phase_name}). *)

val of_row : Spr_obs.Report.dyn_row -> sample
(** Inverse of {!to_row}; rows with a foreign phase-column set decode
    with empty [phase_seconds]. *)

val rows : t -> Spr_obs.Report.dyn_row list
(** [samples] as report rows, in temperature order. *)

val pp_series : Format.formatter -> sample list -> unit
(** The Figure 6 series as an aligned text table. *)

val pp_phase_series : Format.formatter -> sample list -> unit
(** Per-temperature per-phase move-pipeline times (milliseconds), one
    column per {!Profile.phase}; samples without phase data are
    skipped. *)
