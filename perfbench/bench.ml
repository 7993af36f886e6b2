(* The repository benchmark: one workload per invocation, run through the
   public entry point [Spr_flow.run], every delivered layout audited.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics on untraced runs; --trace 1
   pairs each untraced run with a traced one at the same seed and reports
   the per-layer metrics. The last stdout line is one JSON object with
   the keys correct, attempted, failed and metrics; the line before it is
   the spr-bench-1 envelope (cores, commit). Any audit finding, error,
   exception or traced-run divergence counts as a failed run and makes
   the exit code 1. README.md lists the workloads, the metrics, and which
   layer metric should move which end-to-end metric. *)

open Measure
module Json = Spr_obs.Json

(* What one instance process sends back. *)
type summary = {
  wall : float;
  signature : signature;
  delay : float;
  routed : float;
  moves : int;
  rss_mb : float;
  problems : string list;  (** Empty when the delivered layout is correct. *)
  layers : (string * float * string) list;
}

let summarize (r : run) ~layers =
  {
    wall = r.wall;
    signature = run_signature r;
    delay = r.result.Spr_flow.f_critical_delay;
    routed = routed_share r.result.Spr_flow.f_route;
    moves = r.moves;
    rss_mb = r.peak_rss_mb;
    problems = audit_run r;
    layers;
  }

(* The untraced run of an instance. Like every instance, it builds its
   design inside its own process (see {!attempt}), so the parent's heap
   never holds one and the peak memory an instance reports is its own. *)
let untraced ~layers (w : Workload.t) ~seed () =
  let r = flow_run (w.Workload.setup ~seed) in
  summarize r ~layers:(if layers then Layers.public r else [])

(* The traced run of an instance: the benchmark-side composition of the
   layer calls ({!Driver}) for the configurations it reproduces, a
   recording run of the program otherwise. *)
let traced (w : Workload.t) ~seed () =
  let design = w.Workload.setup ~seed in
  if Driver.supported design.Workload.config then begin
    let spans = Span.create () in
    let t0 = now () in
    let o = Driver.run ~spans design.Workload.config design.Workload.arch design.Workload.nl in
    let wall = now () -. t0 in
    let route = o.Driver.route and sta = o.Driver.sta in
    let g = Rs.g_count route and d = Rs.d_count route and delay = Sta.critical_delay sta in
    let moves = o.Driver.report.Spr_anneal.Engine.n_moves in
    {
      wall;
      signature = signature ~moves ~g ~d ~delay;
      delay;
      routed = routed_share route;
      moves;
      rss_mb = peak_rss_mb ();
      problems = audit ~place:o.Driver.place ~route ~sta ~g ~d ~delay;
      layers = Layers.driver spans o;
    }
  end
  else
    let r = flow_run ~record:true design in
    summarize r ~layers:(Layers.recorded r)

(* --- counting attempts and failures --- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
}

let fail tally fmt =
  tally.failed <- tally.failed + 1;
  Printf.ksprintf (fun s -> prerr_endline ("FAILED: " ^ s)) fmt

(* Run one instance in its own process; [None] when it failed. *)
let attempt tally what f =
  tally.attempted <- tally.attempted + 1;
  match Isolate.run f with
  | Error e ->
    fail tally "%s: %s" what e;
    None
  | Ok s when s.problems <> [] ->
    fail tally "%s: audit: %s" what (String.concat "; " s.problems);
    None
  | Ok s -> Some s

(* --- sizing a run --- *)

(* A run measures a fixed number of instances of its workload, sized
   from [--seconds] by the workload's nominal instance time, so the work
   a run does depends on its arguments only, never on the speed of the
   machine. Instance [i] anneals its own trajectory (and, for generated
   designs, its own netlist): one trajectory's length and cost vary too
   much from seed to seed for a single one to be steady. Instance 0 is
   the seed itself. *)
let instances (w : Workload.t) ~seconds ~per_instance =
  max 1 (int_of_float (seconds /. (per_instance *. w.Workload.nominal_s)))

let sub_seed ~seed i = seed + (7919 * i)

(* Set-up takes a fraction of a millisecond to a few milliseconds, and
   at that scale its time follows the load other tenants put on the
   machine: on a shared 2-core x86 VM the median of repeated set-ups
   moved by a third between two rounds of runs. So before and after each instance a process of its
   own repeats the instance's set-up for 0.15 s, each time from a
   compacted heap as a fresh process would start, and [setup_s] is the
   fastest set-up of the whole run, which needs only one quiet moment.
   A failed set-up counts as a failed attempt. *)
let fastest_setup tally (w : Workload.t) ~seed =
  let sample () =
    let times = ref [] and start = now () in
    while List.length !times < 5 || now () -. start < 0.15 do
      Gc.compact ();
      let t0 = now () in
      ignore (Sys.opaque_identity (w.Workload.setup ~seed));
      times := (now () -. t0) :: !times
    done;
    List.fold_left Float.min infinity !times
  in
  tally.attempted <- tally.attempted + 1;
  match Isolate.run sample with
  | Ok t -> [ t ]
  | Error e ->
    fail tally "set-up: %s" e;
    []

(* --- the two modes --- *)

let end_to_end tally (w : Workload.t) ~seed ~seconds =
  let setups, runs =
    List.init (instances w ~seconds ~per_instance:1.0) (fun i ->
        let seed = sub_seed ~seed i in
        let before = fastest_setup tally w ~seed in
        let run = attempt tally "untraced run" (untraced ~layers:false w ~seed) in
        (before @ fastest_setup tally w ~seed, run))
    |> List.split
  in
  let setup_s = List.fold_left Float.min infinity (List.concat setups)
  and runs = List.filter_map Fun.id runs in
  Printf.eprintf "%s: %d instance(s), walls [%s]\n%!" w.Workload.name (List.length runs)
    (String.concat "; " (List.map (fun s -> Printf.sprintf "%.3f" s.wall) runs));
  (* Times take the median over instances, which drops an instance that
     a burst of load on the machine slowed down; the deterministic
     quality and memory figures take the mean, which averages best over
     the instances' seeds. *)
  let med f = median (List.map f runs) and avg f = mean (List.map f runs) in
  [
    ("wall_s", med (fun s -> s.wall), "s");
    ("moves_per_s", med (fun s -> float_of_int s.moves /. s.wall), "1/s");
    ("critical_delay_ns", avg (fun s -> s.delay), "ns");
    ("routed_share", avg (fun s -> s.routed), "share");
    ("setup_s", setup_s, "s");
    ("peak_rss_mb", avg (fun s -> s.rss_mb), "MB");
  ]

(* One untraced and one traced run of an instance. The traced run must
   reach the same moves, G, D and critical delay bit for bit: if it does
   not, it measured a different program. *)
let traced_pair tally (w : Workload.t) ~seed =
  match attempt tally "untraced run" (untraced ~layers:true w ~seed) with
  | None -> None
  | Some u -> (
    match attempt tally "traced run" (traced w ~seed) with
    | None -> None
    | Some t when t.signature <> u.signature ->
      fail tally "traced run diverged: untraced %s, traced %s" (pp_signature u.signature)
        (pp_signature t.signature);
      None
    | Some t -> Some (u, t))

let per_layer tally (w : Workload.t) ~seed ~seconds =
  let pairs =
    List.init (instances w ~seconds ~per_instance:2.0) (fun i ->
        traced_pair tally w ~seed:(sub_seed ~seed i))
    |> List.filter_map Fun.id
  in
  match pairs with
  | [] -> []
  | (u0, t0) :: _ ->
    let value name =
      median
        (List.map
           (fun (u, t) ->
             List.find_map (fun (n, v, _) -> if n = name then Some v else None) (u.layers @ t.layers)
             |> Option.get)
           pairs)
    in
    let untraced_wall = median (List.map (fun (u, _) -> u.wall) pairs)
    and traced_wall = median (List.map (fun (_, t) -> t.wall) pairs) in
    List.map (fun (name, _, unit) -> (name, value name, unit)) (u0.layers @ t0.layers)
    @ [ ("trace_overhead_share", (traced_wall -. untraced_wall) /. untraced_wall, "share") ]

(* --- command line and output --- *)

let usage () =
  Printf.eprintf "usage: bench.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map (fun w -> w.Workload.name) Workload.all));
  exit 2

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref 25.0 and trace = ref false in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := Workload.find v;
      if Option.is_none !workload then usage ();
      go rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s when s >= 0 ->
        seed := s;
        go rest
      | _ -> usage ())
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 ->
        seconds := s;
        go rest
      | _ -> usage ())
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := v = "1";
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with None -> usage () | Some w -> (w, !seed, !seconds, !trace)

(* The spr-bench-1 envelope; its commit is "unknown" outside a git
   checkout. *)
let envelope (w : Workload.t) ~seed ~trace =
  Spr_obs.Bench.payload ~bench:"perfbench" ~effort:"quick"
    [ ("workload", Json.String w.Workload.name); ("seed", Json.Int seed); ("trace", Json.Bool trace) ]

let () =
  let w, seed, seconds, trace = parse_args () in
  let cores = Domain.recommended_domain_count () in
  if cores < w.Workload.min_cores then begin
    Printf.eprintf "%s needs %d cores and this machine has %d; refusing to time-slice it\n"
      w.Workload.name w.Workload.min_cores cores;
    exit 3
  end;
  let tally = { attempted = 0; failed = 0 } in
  let metrics =
    if trace then per_layer tally w ~seed ~seconds else end_to_end tally w ~seed ~seconds
  in
  let correct =
    tally.failed = 0 && metrics <> [] && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  print_endline (Json.to_string (envelope w ~seed ~trace));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int tally.attempted);
            ("failed", Json.Int tally.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
