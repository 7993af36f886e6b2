(** Multi-replica portfolio coordination for parallel annealing.

    A portfolio runs K independent replicas of the full anneal, each on
    its own domain with its own derived RNG stream and private mutable
    state. This module owns the generic coordination machinery — the
    exchange policy, the temperature-boundary barrier, and the domain
    fan-out — while the tool layer supplies the replica bodies and the
    layout capture/adoption callbacks.

    {2 Determinism contract}

    Under [Independent] exchange the coordinator never intervenes, so
    each replica's trajectory is a pure function of
    [(seed, replica_index)]. Under [Best_exchange n] a round only
    trips once {e every} active replica has either arrived at a round
    or finished, so the participant set — and therefore the broadcast
    winner — is a deterministic function of the replica trajectories,
    independent of domain scheduling. Round results can be persisted
    and replayed so that a killed-and-resumed portfolio re-serves the
    same broadcasts at the same boundaries. *)

type exchange =
  | Independent  (** replicas never communicate; pure best-of-K *)
  | Best_exchange of int
      (** every [n] temperature boundaries, replicas synchronise and
          any replica strictly worse than the portfolio best adopts
          the best replica's layout *)

val exchange_to_string : exchange -> string
(** ["independent"] or ["best:<n>"] — the CLI / run-meta spelling. *)

val exchange_of_string : string -> (exchange, string) result
(** Inverse of {!exchange_to_string}. *)

type round_result = {
  xr_round : int;  (** 1-based exchange round index *)
  xr_best_replica : int;  (** winning replica (lowest index on ties) *)
  xr_best_metric : float;  (** winner's metric at the boundary *)
  xr_payload : string;  (** winner's captured layout *)
}
(** Outcome of one tripped exchange round, exactly as broadcast. *)

type t
(** A coordinator shared by all replicas of one portfolio run. *)

val create :
  replicas:int ->
  exchange:exchange ->
  ?history:round_result list ->
  ?persist:(round_result -> unit) ->
  ?frozen:(unit -> bool) ->
  unit ->
  t
(** [create ~replicas ~exchange ()] builds a coordinator for
    [replicas] replica workers. [history] replays previously recorded
    rounds (resume): a replica arriving at a recorded round is served
    the recorded result immediately instead of waiting. [persist] is
    called exactly once per freshly tripped round, under the
    coordinator lock, before any waiter is released — write the record
    atomically there to make exchanges crash-safe. [frozen] is polled
    to freeze coordination on interrupt: once it returns [true], no
    new round trips or persists and every waiter is released without
    adoption, which guarantees that every {e recorded} round had full
    live participation (the property resume replay relies on). *)

val round_of : t -> temp_index:int -> int option
(** The exchange round due at this temperature boundary, if any.
    [Best_exchange n] trips round [i/n] at boundaries [i = n, 2n, ...];
    boundary 0 and [Independent] never exchange. *)

val sync :
  t ->
  replica:int ->
  temp_index:int ->
  metric:float ->
  capture:(unit -> string) ->
  round_result option
(** Called by replica [replica] at temperature boundary [temp_index]
    with its current best-layout [metric]. Returns immediately with
    [None] when no exchange is due. Otherwise blocks until the round
    trips (or the coordinator freezes), and returns [Some r] iff this
    replica must adopt [r.xr_payload] — that is, some other replica's
    metric was strictly better than [metric]. [capture] is invoked at
    most once, outside the coordinator lock, to serialise this
    replica's current best layout for a live round. *)

val finished : t -> replica:int -> unit
(** Deregister a replica that has stopped annealing (normally or on
    interrupt). Must be called exactly once per replica — pending
    rounds re-evaluate without it, so forgetting this deadlocks the
    remaining waiters. *)

val history : t -> round_result list
(** All rounds tripped or replayed so far, in ascending round order. *)

val run_replicas : replicas:int -> (int -> 'a) -> ('a, exn) result array
(** [run_replicas ~replicas f] runs [f 0 .. f (replicas-1)]
    concurrently — replica 0 on the calling domain, the rest on
    spawned domains — and returns their outcomes indexed by replica.
    An exception escaping [f k] is captured as [Error exn] for that
    slot; the other replicas still run to completion. *)
