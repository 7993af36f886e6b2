(** Mutable placement state: every cell always occupies a legal slot
    (paper §3.2 — no illegal intermediate states), plus the current
    pinmap of every cell.

    Slots are [(row, col)] pairs. I/O pad cells are only legal on
    perimeter slots; other cells are legal anywhere. *)

type slot = { row : int; col : int }

type t

val create :
  Spr_arch.Arch.t -> Spr_netlist.Netlist.t -> rng:Spr_util.Rng.t -> (t, string) result
(** Random initial placement: pads on random perimeter slots, all other
    cells on the remaining slots. Fails when {!Spr_arch.Arch.check_fits}
    fails. *)

val create_exn : Spr_arch.Arch.t -> Spr_netlist.Netlist.t -> rng:Spr_util.Rng.t -> t

val create_from :
  Spr_arch.Arch.t ->
  Spr_netlist.Netlist.t ->
  slots:slot array ->
  pinmaps:int array ->
  (t, string) result
(** Deterministic construction from explicit per-cell slots and pinmap
    indices (both indexed by cell id) — used to restore checkpoints.
    Fails on duplicate slots, illegal pad positions, or out-of-range
    pinmap indices. *)

val arch : t -> Spr_arch.Arch.t

val netlist : t -> Spr_netlist.Netlist.t

(** {1 Queries} *)

val slot_of : t -> int -> slot
(** Current slot of a cell. *)

val cell_at : t -> slot -> int option
(** Occupant of a slot, if any. *)

val legal_at : t -> cell:int -> slot -> bool

val swap_legal : t -> slot -> slot -> bool
(** Would exchanging the contents of the two slots leave every involved
    cell on a legal slot? Vacant slots are allowed on either side. *)

(** {1 Pin geometry} *)

val pinmap_index : t -> int -> int
(** Index into the cell's pinmap palette. *)

val palette_size : t -> int -> int

val pin_channel : t -> cell:int -> pin:int -> int
(** Channel adjacent to the cell that this pin connects into, under the
    current placement and pinmap. *)

val pin_col : t -> cell:int -> pin:int -> int

val net_pin_positions : t -> int -> (int * int) list
(** [(channel, col)] of every terminal of the net: the driver's output
    pin followed by each sink pin.

    Pin positions and the bounding box derived from them are memoized
    per net; the cache entry is invalidated inside {!swap_slots} and
    {!set_pinmap} (which journal undo closures also call, so rollbacks
    invalidate exactly what they restore). *)

type geom = private {
  g_pins : (int * int) list;  (** {!net_pin_positions} *)
  g_ch_lo : int;  (** lowest channel touched by a pin *)
  g_ch_hi : int;
  g_col_lo : int;  (** leftmost pin column *)
  g_col_hi : int;
}

val geom : t -> int -> geom
(** The net's memoized pin geometry: its pins and their bounding box.
    Allocates only when the memo entry must be recomputed, so the
    routers read bounding boxes through it on every attempt. *)

val net_channel_span : t -> int -> (int * int) option
(** [(lowest, highest)] channel touched by the net's terminals; [None]
    for nets with no terminals. *)

val net_col_span : t -> int -> (int * int) option

val half_perimeter : t -> int -> int
(** Bounding-box half-perimeter of the net's pins (columns span plus
    channels span), the classic placement wirelength estimate. 0 for
    degenerate nets. *)

(** {1 Mutation} *)

val swap_slots : t -> slot -> slot -> unit
(** Exchange the contents of two slots (either may be vacant). Does not
    check legality — callers filter with {!swap_legal} first. Involutive,
    so the inverse of a swap is the same swap. *)

val set_pinmap : t -> cell:int -> index:int -> unit
(** Select a palette entry for the cell. *)

val random_slot : t -> Spr_util.Rng.t -> slot

val random_occupied_slot : t -> Spr_util.Rng.t -> slot
(** A slot currently holding a cell. *)

(** {1 Validation} *)

val check : t -> (unit, string) result
(** Verifies the slot/cell bijection, per-cell legality, and the
    geometry memo cache; used by tests and the routing validator. *)

val check_caches : t -> (unit, string) result
(** Verify every live pin-geometry memo entry against a from-scratch
    recomputation. Subsumed by {!check}; exposed for targeted property
    tests. *)
