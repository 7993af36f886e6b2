(* Benchmark-side timing of calls into the program's public layers: a
   per-name aggregate (calls, wall seconds, minor words), kept in memory
   until the run ends. One aggregate costs no allocation per call, so it
   serves the once-per-move calls as well as the once-per-run ones.

   Nothing here touches the program's state, so a traced run takes the
   same trajectory as an untraced one. *)

type agg = {
  mutable calls : int;
  mutable seconds : float;
  mutable words : float;
}

type t = (string, agg) Hashtbl.t

(* Seconds on the monotonic clock, at nanosecond resolution: once-per-run
   calls can take about a microsecond, below what the wall clock resolves. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create () : t = Hashtbl.create 16

let agg (t : t) name =
  match Hashtbl.find_opt t name with
  | Some a -> a
  | None ->
    let a = { calls = 0; seconds = 0.0; words = 0.0 } in
    Hashtbl.replace t name a;
    a

let timed a f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  a.seconds <- a.seconds +. (now () -. t0);
  a.words <- a.words +. (Gc.minor_words () -. w0);
  a.calls <- a.calls + 1;
  r

(* Mean seconds per call of [a]; 0 when it was never called. *)
let mean a = a.seconds /. float_of_int (max 1 a.calls)
