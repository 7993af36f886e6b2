(** Mutable binary min-heap keyed by integer priorities.

    Used by the incremental timing analyzer to process cells in level
    order, and by routers to order rip-up queues. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> int -> 'a -> unit
(** [add q priority v] inserts [v] with [priority]; smaller priorities pop
    first. *)

val pop_min : 'a t -> (int * 'a) option
(** Remove and return the entry with the smallest priority, or [None] when
    empty. Ties pop in unspecified order. *)

val take_min : 'a t -> 'a
(** Remove and return the value with the smallest priority, allocating
    nothing; the same entry {!pop_min} would return. Raises
    [Invalid_argument] when empty. *)

val clear : 'a t -> unit
