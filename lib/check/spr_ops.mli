(** Random-operation machinery for differential testing of the
    incremental SPR state.

    A {!state} bundles a real placement, routing state and incremental
    STA sharing one journal — the same triple the simultaneous tool
    anneals over. Operations mirror the tool's move set (cell swaps,
    translations to vacant slots, pinmap moves, incremental route /
    unroute, whole reroute passes) plus explicit journal transaction
    control (begin / commit / rollback). Every mutating operation also
    feeds the STA invalidation, exactly as the tool's move transaction
    does, so the full incremental stack is exercised.

    After each operation the state must pass {!Audit.run_all}; a
    [Rollback] additionally requires the observable state to equal the
    snapshot taken at [Begin] (the undo round-trip contract). Plug
    {!spec} into {!Prop.run} to get seeded, shrinking property tests
    over all of this. *)

type op =
  | Swap of int * int  (** Two raw slot codes (reduced mod fabric size). *)
  | Translate of int * int  (** Cell code, target slot code. *)
  | Pinmap_move of int * int  (** Cell code, palette shift. *)
  | Route_pass  (** One incremental {!Spr_route.Router.reroute} pass. *)
  | Route_net of int  (** Global + detailed attempts for one net. *)
  | Unroute of int  (** {!Spr_route.Route_state.rip_up} one net. *)
  | Rip_cell of int  (** Rip every net attached to a cell. *)
  | Begin
  | Commit
  | Rollback

val show_op : op -> string

type state

val make :
  ?n_cells:int ->
  ?tracks:int ->
  seed:int ->
  unit ->
  state
(** Deterministic system: a generated [n_cells] circuit (default 44) on
    a [tracks]-per-channel fabric (default 14), randomly placed, given
    two initial routing passes, with a fresh incremental STA. *)

val apply : state -> op -> unit

val gen : Spr_util.Rng.t -> op
(** The operation mix (placement perturbations and routing traffic
    dominate, with regular transaction control). State-independent, so
    sequences shrink by deletion. *)

val snapshot : state -> string
(** The observable-state fingerprint: placement slots and pinmaps, the
    full routing snapshot, and the timing bottom line. Two states are
    behaviourally equal iff their fingerprints are equal. *)

val check : state -> (unit, string) Stdlib.result
(** A pending rollback-mismatch violation if one occurred, else the
    first finding of {!Audit.run_all} (place + route + STA). *)

val route_state : state -> Spr_route.Route_state.t

val spec : ?n_cells:int -> ?tracks:int -> unit -> (state, op) Prop.spec
(** The whole thing packaged for {!Prop.run}. *)
