(** The move transaction as an explicit five-phase pipeline.

    Every annealing move runs propose -> rip-up -> reroute (global, then
    per-channel detailed) -> retime, and later accept/reject runs the
    decide phase. All mutations go through one shared journal, so a
    reject unwinds the entire cascade. Each phase is bracketed by
    {!Profile}, giving per-phase wall clock and counters for
    [spr route --obs-profile] and the dynamics trace. *)

type t

val create :
  ?profile:Profile.t ->
  router:Spr_route.Router.config ->
  pinmap_move_prob:float ->
  enable_pinmap_moves:bool ->
  max_swap_tries:int ->
  place:Spr_layout.Placement.t ->
  rs:Spr_route.Route_state.t ->
  sta:Spr_timing.Sta.t ->
  weights:Spr_anneal.Weights.t ->
  journal:Spr_util.Journal.t ->
  unit ->
  t
(** The routing state must carry a canonical (freshly built or
    [full_update]d) STA; the constructor clears its dirty-net set, since
    the timing picture already reflects the initial routing. [?profile]
    continues accumulating into an existing profile instead of starting
    a fresh one — the tool passes the old pipeline's profile when it
    rebuilds the pipeline around an adopted portfolio layout, so one
    profile spans the whole replica run. *)

val profile : t -> Profile.t
(** The cumulative per-phase instrumentation for this pipeline. *)

val last_cells : t -> int list
(** Cells perturbed by the most recent {!propose}; empty when it
    returned [false] or no move has run. *)

val propose : t -> Spr_util.Rng.t -> bool
(** Run one transaction through propose/rip-up/reroute/retime, leaving
    its mutations open in the journal. [false] when no legal perturbation
    was found (the journal is untouched); the caller must then neither
    {!accept} nor {!reject}. *)

val accept : t -> unit
(** Decide phase: commit the open transaction. *)

val reject : t -> unit
(** Decide phase: roll the open transaction back. *)
