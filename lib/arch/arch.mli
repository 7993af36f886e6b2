(** Row-based FPGA fabric model.

    [rows] rows of [cols] unit-width logic-module slots. Channel [k] runs
    {e below} row [k]; channel [rows] runs above the top row, so there are
    [rows + 1] channels. Each channel has [tracks] horizontal tracks with
    a {!Segmentation.scheme}. Each column carries [vtracks] vertical
    tracks, segmented over channel spans, used as feedthrough spines by
    the global router. *)

type vscheme =
  | V_full  (** One vertical segment spanning all channels. *)
  | V_span of int  (** Vertical segments each spanning the given number of channels. *)

type t = private {
  rows : int;
  cols : int;
  tracks : int;
  vtracks : int;
  n_channels : int;  (** [rows + 1]. *)
  hscheme : Segmentation.scheme;
  hsegs : Spr_util.Interval.t array array array;
      (** [hsegs.(channel).(track)] partitions columns [\[0, cols-1\]]. *)
  vsegs : Spr_util.Interval.t array array array;
      (** [vsegs.(col).(vtrack)] partitions channels [\[0, rows\]]. *)
  avg_hseg : float;  (** {!avg_hseg_length}, computed once at creation. *)
}

val create :
  rows:int ->
  cols:int ->
  tracks:int ->
  ?hscheme:Segmentation.scheme ->
  ?vtracks:int ->
  ?vschemes:vscheme array ->
  unit ->
  t
(** Defaults: [hscheme = Actel_like], [vtracks = 5], and a vertical mix
    of full-span tracks (the first half, rounded up) plus half-span
    tracks. [vschemes], when given, must have length [vtracks]. Raises
    [Invalid_argument] on non-positive dimensions. *)

val with_tracks : t -> int -> t
(** Same fabric with a different horizontal track count (used by the
    Table 2 minimum-width search). *)

(** {1 Capacity} *)

val n_slots : t -> int

val is_perimeter : t -> row:int -> col:int -> bool

val n_perimeter_slots : t -> int

val check_fits : t -> Spr_netlist.Netlist.t -> (unit, string) result
(** Capacity check: enough slots for all cells and enough perimeter slots
    for the I/O pads. *)

(** {1 Segment lookup} *)

val hsegments : t -> channel:int -> track:int -> Spr_util.Interval.t array

val vsegments : t -> col:int -> vtrack:int -> Spr_util.Interval.t array

val cover_start : Spr_util.Interval.t array -> lo:int -> hi:int -> int
(** [cover_start segs ~lo ~hi] is the index of the first of the
    consecutive segments of a partition that together cover [\[lo, hi\]]
    (the segment containing [lo]), or [-1] when the span exceeds the
    partition's extent. Allocates nothing. *)

val cover_end : Spr_util.Interval.t array -> int -> hi:int -> int
(** [cover_end segs first ~hi] is the index of the last segment of the
    cover that starts at [first] (the segment containing [hi]).
    [first] must come from {!cover_start} with the same [hi]. *)

val find_cover : Spr_util.Interval.t array -> Spr_util.Interval.t -> (int * int) option
(** [find_cover segs span] returns the index range [(lo, hi)] of the
    consecutive segments of a partition that together cover [span], or
    [None] when [span] exceeds the partition's extent. A wrapper over
    {!cover_start} and {!cover_end}. *)

val avg_hseg_length : t -> float

(** {1 Sizing} *)

val size_for :
  ?aspect:float ->
  ?utilization:float ->
  ?tracks:int ->
  ?hscheme:Segmentation.scheme ->
  ?vtracks:int ->
  Spr_netlist.Netlist.t ->
  t
(** Pick fabric dimensions for a netlist: total slots =
    [cells / utilization] (default 0.85), [cols / rows ~ aspect]
    (default 3.0, row-based die are wide), widened if needed until the
    perimeter holds all I/O pads. Default [tracks = 24]; when [vtracks]
    is omitted it scales with the row count ([max 5 ((rows+1)/2)]) since
    taller fabrics see more feedthrough demand per column. *)

val pp : Format.formatter -> t -> unit
