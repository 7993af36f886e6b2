(** Interconnect delay of one net, driver to each sink.

    Fully embedded nets get a detailed RC-tree Elmore evaluation over
    their exact segments and antifuses (paper §3.5: "we calculate the
    Elmore delay" once "the exact antifuse usage is known"). Nets not yet
    embedded get a crude estimate relating the net's spatial extent to
    the probable number of antifuses it will encounter — inaccurate, but
    sufficient early in layout while other cost terms push the net toward
    a feasible path. *)

type workspace
(** Reusable RC-tree storage: the tree, its evaluation arrays, the
    per-sink node map and per-channel node offsets. Building a net into
    a workspace that has seen a net at least as large allocates
    nothing. Each incremental analyzer owns one. *)

val create_workspace : unit -> workspace

val build_rc_tree :
  Delay_model.t ->
  Spr_route.Route_state.t ->
  int ->
  (Rc_tree.t * int * int array) option
(** [(tree, root node, per-sink nodes)] for a fully embedded net: one
    node per claimed segment, antifuse edges between adjacent segments,
    cross-antifuse taps for the driver, sinks, and spine junctions.
    [None] when the net is not fully embedded. Built in a fresh
    workspace by the same code {!sink_delays_into} runs; the two-moment
    {!Awe} cross-checker consumes it. *)

val routed_sink_delays :
  Delay_model.t -> Spr_route.Route_state.t -> int -> float array option
(** Per-sink Elmore delays, indexed like the net's sink array; [None]
    when the net is not fully embedded. *)

val estimate : Delay_model.t -> Spr_route.Route_state.t -> int -> float
(** Crude single-value estimate from the pin bounding box and the
    fabric's average segment length. *)

val sink_delays : Delay_model.t -> Spr_route.Route_state.t -> int -> float array
(** Per-sink delays: exact when embedded, otherwise the estimate
    replicated. Zero-length for nets without sinks. *)

val sink_delays_into :
  Delay_model.t -> Spr_route.Route_state.t -> workspace -> int -> out:float array -> int
(** Allocation-free variant of {!sink_delays}: builds the net's tree in
    the workspace and writes the per-sink delays into the first
    [n_sinks] cells of [out] (which must be at least that long),
    returning [n_sinks]. The incremental analyzer keeps one workspace
    and one output buffer across moves and only materializes a fresh
    array when a net's delays actually changed. *)
