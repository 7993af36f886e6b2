(** Mutable routing state over a placement: segment ownership, per-net
    partial routes, and the unroutable-net queues U{_G} and U{_D,R} of
    paper §3.3-3.4.

    Nets appear in three states (paper §3.2): completely unrouted,
    globally routed but not detail routed, and completely embedded. A net
    spanning several channels needs a {e global route} — a stack of
    vertical segments (a spine) at one feedthrough column; every channel
    holding terminals of the net then needs a {e detailed route} — a run
    of consecutive free segments on a single horizontal track covering the
    net's column span in that channel (including the spine column).

    All mutations take a {!Spr_util.Journal.t} and are fully undoable, so
    a rejected annealing move can roll back rip-ups and re-routes
    exactly. *)

type hroute = {
  h_channel : int;
  h_track : int;
  h_slo : int;  (** First claimed segment index on the track. *)
  h_shi : int;  (** Last claimed segment index. *)
  h_span : Spr_util.Interval.t;  (** Column span the route must cover. *)
}

type vroute = {
  v_col : int;
  v_vtrack : int;
  v_slo : int;
  v_shi : int;
  v_span : Spr_util.Interval.t;  (** Channel span covered by the spine. *)
}

type t

val create : Spr_layout.Placement.t -> t
(** All nets start completely unrouted: every routable net is queued. *)

val place : t -> Spr_layout.Placement.t

val arch : t -> Spr_arch.Arch.t

val netlist : t -> Spr_netlist.Netlist.t

(** {1 Cost-function counts} *)

val g_count : t -> int
(** [G]: number of nets that need but lack a global route. *)

val d_count : t -> int
(** [D]: number of nets that lack a complete detailed routing (a net
    without its global route also counts, per paper §3.4). *)

val n_routable : t -> int
(** Number of nets with at least two terminals (the denominator for the
    Figure 6 percentages). *)

val fully_routed : t -> bool

(** {1 Per-net inspection} *)

val needs_global : t -> int -> bool

val global_route : t -> int -> vroute option

val h_demands : t -> int -> (int * Spr_util.Interval.t) list
(** [(channel, span)] detailed-routing obligations; empty until the
    net's global route exists. *)

val has_demand : t -> int -> channel:int -> bool
(** Whether {!h_demands} has an entry for the channel. *)

val demand_span : t -> int -> channel:int -> Spr_util.Interval.t
(** The net's demand span in the channel, without allocating; only
    meaningful when {!has_demand} holds. *)

val h_routes : t -> int -> (int * hroute) list
(** Completed channel routes, keyed by channel. *)

val is_fully_routed : t -> int -> bool

(** {2 Mirror inspection}

    Read-only views of the O(1) bookkeeping mirrors, exposed so an
    external auditor ({!Spr_check.Route_audit}) can diff them against a
    from-scratch recomputation. Not needed by routers. *)

val routable : t -> int -> bool
(** Whether the net has at least one sink (fixed by the netlist). *)

val in_ug_flag : t -> int -> bool
(** The net's [in_ug] mirror flag (the U{_G} membership cache), as
    distinct from actual membership in the U{_G} table reported by
    {!u_g}. *)

val missing_channels : t -> int -> int list
(** Channels where the net still awaits a detailed route (the per-net
    mirror of the U{_D,R} tables). *)

val d_flag : t -> int -> bool
(** The net's cached contribution to the [D] count. *)

val hfree_bit : t -> channel:int -> track:int -> col:int -> bool
(** The track's bit in the [hfree] mask of the cell (see
    {!section-free_maps}). *)

val vfree_bit : t -> col:int -> vtrack:int -> channel:int -> bool

(** {1 Queues} *)

val u_g : t -> int list
(** Nets currently awaiting a global route, in explicit retry order:
    estimated length (bounding-box half-perimeter) descending, net id
    descending on ties (paper §3.3). The order is a property of the
    queue contents, never of hash internals, and survives rollback
    bit-for-bit. *)

val u_d : t -> int -> int list
(** [u_d t channel]: nets awaiting a detailed route in that channel, in
    retry order: demand span length descending, net id descending on
    ties (paper §3.4). *)

(** {2 Attempt snapshots}

    A routing sweep attempts a snapshot of its queue taken before any
    attempt: the queued nets whose attempt is pending (see below), in
    queue order, capped. Attempts mutate the queues, never the
    snapshot. The snapshot lives in one reused buffer owned by the
    state, so taking it allocates nothing; a sweep must finish with one
    snapshot before taking the next. *)

val snapshot_buffer : t -> int array
(** The buffer the snapshot functions fill, [n_nets] long. A sweep may
    reorder its own snapshot in place. *)

val snapshot_ug : t -> cap:int -> int
(** Copy the first [cap] nets of {!u_g} with {!global_attempt_pending}
    into {!snapshot_buffer}; returns how many. *)

val snapshot_ud : t -> channel:int -> cap:int -> int
(** Copy the first [cap] nets of [u_d t channel] that have a demand in
    the channel and {!detail_attempt_pending} into {!snapshot_buffer};
    returns how many. *)

(** {2 Dirty-net tracking}

    Every mutation ({!rip_up}, {!claim_global}, {!claim_detail}) marks
    its net in a dense dirty set, replacing the ad-hoc ripped/rerouted
    lists the move transaction used to concatenate. The set is scratch
    state for the current move: monotone, unjournaled, and cleared by
    the consumer once the dirty nets have been handed to timing. *)

val dirty_nets : t -> int list
(** Nets touched since the last {!clear_dirty}, ascending. *)

val clear_dirty : t -> unit

(** {2 Failure memoization}

    A queued net whose last routing attempt failed can only succeed after
    relevant resources are freed (or its pins move, which re-queues it
    through {!rip_up}). The state tracks a free-epoch per channel and one
    for the vertical resources; routers consult these to skip attempts
    that would fail identically. The epochs are deliberately not
    journaled: after a rollback the state is exactly the pre-move state,
    so a recorded failure remains valid, and a spurious pending flag only
    costs one redundant attempt. *)

val global_attempt_pending : t -> int -> bool

val note_global_failure : t -> int -> unit

val detail_attempt_pending : t -> int -> channel:int -> bool

val note_detail_failure : t -> int -> channel:int -> unit

val force_retry : t -> int -> unit
(** Clear the net's recorded failures so the next pass re-attempts it
    (used when a router is about to search with different parameters,
    e.g. a widened spine margin). *)

type memo = {
  m_g_stamp : int array;  (** per net *)
  m_d_stamp : int array array;  (** per net, per channel *)
  m_h_epoch : int array array;  (** per channel, per column bucket *)
  m_v_epoch : int array;  (** per column bucket *)
}
(** Snapshot of the failure-memoization state. The stamps gate which
    queued nets the routers retry, so although the memo never affects
    which routes are {e legal}, it does affect which candidate the
    retry pass picks next — a checkpoint that wants a bit-identical
    resume must carry it. *)

val memo : t -> memo
(** Deep copy of the current stamps and epochs. *)

val set_memo : t -> memo -> (unit, string) result
(** Overwrite the stamps and epochs from a snapshot. [Error] (and no
    mutation) if the snapshot's dimensions do not match this state's
    design and fabric. *)

(** {1 Segment availability} *)

val hseg_owner : t -> channel:int -> track:int -> seg:int -> int
(** Owning net id, or [-1] when free. *)

val vseg_owner : t -> col:int -> vtrack:int -> seg:int -> int

val hrun_free : t -> channel:int -> track:int -> slo:int -> shi:int -> bool

val vrun_free : t -> col:int -> vtrack:int -> slo:int -> shi:int -> bool

(** {2:free_maps Free-track maps}

    Occupancy indexed by cell, for O(span) feasibility tests. Per
    channel and column there is a mask of the tracks whose segment
    holding that column is free ([hfree]), and per column and channel a
    mask of the vtracks whose segment holding that channel is free
    ([vfree]). Segments partition their track, so a track's cover run
    over a span is free exactly when its bit is set in every cell of the
    span: the AND of the masks over the span is the set of tracks that
    can take it.

    A mask is a sequence of {!word_bits}-bit words (as many as the track
    count needs); bit [b] of word [w] is track [w * word_bits + b]. The
    maps are derived state: every ownership write keeps them current,
    its journal undo restores them with the owners, and they are never
    persisted. *)

val word_bits : int
(** Tracks per mask word (62, so every word is a non-negative int). *)

val hfree_and : t -> channel:int -> word:int -> lo:int -> hi:int -> int
(** AND of word [word] of the [hfree] masks over columns [lo..hi] of
    the channel ([0 <= lo <= hi < cols]). *)

val vfree_and : t -> col:int -> word:int -> clo:int -> chi:int -> int
(** AND of word [word] of the [vfree] masks over channels [clo..chi] at
    the column ([0 <= clo <= chi < n_channels]). *)

val lowest_bit_index : int -> int
(** Index of the lowest set bit of a non-zero word. *)

(** {1 Mutation (all journaled)} *)

val rip_up : t -> Spr_util.Journal.t -> int -> unit
(** Free every segment of the net, drop its routes, recompute its demand
    from the {e current} placement and pinmaps, and queue it
    (into U{_G} when it spans channels, else into the relevant U{_D,R}).
    Call after the placement mutation that invalidated the net. *)

val claim_global : t -> Spr_util.Journal.t -> int -> vroute -> unit
(** Record a global route for a net in U{_G}; claims the vertical
    segments (which must be free), computes the per-channel detailed
    demands, and queues them. *)

val satisfy_trivial_global : t -> Spr_util.Journal.t -> int -> unit
(** For single-channel nets: mark the (null) global route done and queue
    the detailed demand. Applied automatically by {!rip_up}; exposed for
    tests. *)

val claim_detail : t -> Spr_util.Journal.t -> int -> hroute -> unit
(** Record a detailed route for one queued channel demand of the net;
    claims the horizontal segments (which must be free). *)

(** {1 Validation} *)

val check : t -> (unit, string) result
(** Exhaustive invariant check (ownership consistency, free-track maps
    recomputed from the owners, coverage, contiguity,
    demand/queue/counter agreement with the current placement). Used by
    tests; O(fabric + nets). *)

module Debug : sig
  (** Deliberate state corruption, for tests only: each setter desyncs
      exactly one mirror or owner entry {e without} touching anything
      else, so the mutation smoke tests can verify that every auditor
      actually detects the fault it claims to cover. Never call these
      outside tests. *)

  val flip_d_flag : t -> int -> unit

  val flip_in_ug_flag : t -> int -> unit

  val clear_missing : t -> int -> unit
  (** Empty the net's missing-channel mirror, leaving the U{_D,R} tables
      and the D count stale. *)

  val set_hseg_owner : t -> channel:int -> track:int -> seg:int -> int -> unit
  (** Overwrite one owner entry; the free-track map follows it, so only
      the owner-versus-routes agreement breaks. *)

  val set_vseg_owner : t -> col:int -> vtrack:int -> seg:int -> int -> unit

  val flip_free_bit : t -> [ `H of int * int | `V of int * int ] -> track:int -> unit
  (** Flip one track's bit in one free-map cell, [`H (channel, col)] or
      [`V (col, channel)], leaving the owners as they are. *)

  val bump_d_total : t -> int -> unit
end

val snapshot : t -> string
(** Deterministic serialization of the observable routing state (segment
    ownership, per-net routes and demands, queues, counters) — two states
    are equal iff their snapshots are equal. Each net's track runs appear
    in live list order, the order {!h_routes} returns and the delay model
    and checkpoints observe. Tests use this to verify
    that a rolled-back transaction restores the state exactly. *)
