(** Incremental global routing heuristic (paper §3.3).

    Global routing for row-based FPGAs assigns feedthrough (vertical
    spine) resources to nets that span channels. The heuristic is
    deliberately simple and fast: take the free stack of vertical
    segments closest to the center of the net's column bounding box.
    Robustness comes not from one exhaustive search but from the many
    re-attempts the annealer makes in ever more compliant placements. *)

val attempt :
  ?margin:int -> ?max_candidates:int -> Route_state.t -> Spr_util.Journal.t -> int -> bool
(** [attempt st j net] tries to give [net] (which must be in U{_G}) a
    global route; on success the route is claimed through
    {!Route_state.claim_global} and [true] is returned. [margin]
    (default 2) lets the spine sit slightly outside the pin bounding
    box; at most [max_candidates] (default 24) columns are probed,
    nearest the bounding-box center first. *)

val free_vtrack : Route_state.t -> x:int -> clo:int -> chi:int -> int
(** [free_vtrack st ~x ~clo ~chi] is the lowest vertical track at column
    [x] whose free segments cover channels [clo..chi], or [-1] (also for
    a span outside the fabric). The probe {!attempt} makes per candidate
    column, exposed for tests. *)
