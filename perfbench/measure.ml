(* One audited call of the public entry point, and the arithmetic the
   metrics share. *)

module Rs = Spr_route.Route_state
module Sta = Spr_timing.Sta
module Tool = Spr_core.Tool
module Profile = Spr_core.Profile

let now = Span.now

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let mean = Spr_util.Stats.mean_of

let per num den = num /. float_of_int (max 1 den)

let ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

type run = {
  wall : float;
  result : Spr_flow.result;
  replicas : Tool.result list;
  profile : Profile.t;
  moves : int;  (** Annealing moves summed over replicas. *)
  accepted : int;
  temperatures : int;
  minor_words : float;
  minor_collections : int;
  major_collections : int;
  peak_rss_mb : float;  (** Right after the call, before any audit. *)
}

let flow_run ?(record = false) (d : Workload.design) =
  let config = Tool.Config.with_trace_recording record d.Workload.config in
  let q0 = Gc.quick_stat () in
  let t0 = now () in
  let out = Spr_flow.run ~config d.Workload.arch d.Workload.nl in
  let wall = now () -. t0 in
  let q1 = Gc.quick_stat () in
  match out with
  | Error e -> failwith ("Spr_flow.run: " ^ Tool.error_to_string e)
  | Ok result ->
    let replicas, profile =
      match result.Spr_flow.f_tool, result.Spr_flow.f_portfolio with
      | Some r, _ -> ([ r ], r.Tool.profile)
      | None, Some p -> (Array.to_list p.Tool.p_results, p.Tool.p_profile)
      | None, None -> ([], Profile.create ())
    in
    let sum f =
      List.fold_left (fun acc (r : Tool.result) -> acc + f r.Tool.anneal_report) 0 replicas
    in
    {
      wall;
      result;
      replicas;
      profile;
      moves = sum (fun a -> a.Spr_anneal.Engine.n_moves);
      accepted = sum (fun a -> a.Spr_anneal.Engine.n_accepted);
      temperatures = sum (fun a -> a.Spr_anneal.Engine.n_temperatures);
      minor_words = q1.Gc.minor_words -. q0.Gc.minor_words;
      minor_collections = q1.Gc.minor_collections - q0.Gc.minor_collections;
      major_collections = q1.Gc.major_collections - q0.Gc.major_collections;
      peak_rss_mb = peak_rss_mb ();
    }

(* Problems with a delivered layout: audit findings (placement bijection
   and legality, the from-scratch routing mirror, the from-scratch STA
   diff), a failing placement check, or reported numbers that disagree
   with the layout. Empty means correct. *)
let audit ~place ~route ~sta ~g ~d ~delay =
  let findings = List.map Spr_check.Finding.to_string (Spr_check.Audit.run_all ~sta route) in
  let place_check =
    match Spr_layout.Placement.check place with Ok () -> [] | Error e -> [ "placement: " ^ e ]
  in
  let consistency =
    List.filter_map Fun.id
      [
        (if place != Rs.place route then Some "delivered placement is not the routed one"
         else None);
        (if g <> Rs.g_count route || d <> Rs.d_count route then
           Some
             (Printf.sprintf "reported G=%d D=%d, layout has G=%d D=%d" g d (Rs.g_count route)
                (Rs.d_count route))
         else None);
        (if delay <> Sta.critical_delay sta then Some "reported critical delay differs from STA"
         else None);
      ]
  in
  findings @ place_check @ consistency

let audit_run (r : run) =
  let f = r.result in
  audit ~place:f.Spr_flow.f_place ~route:f.Spr_flow.f_route ~sta:f.Spr_flow.f_sta
    ~g:f.Spr_flow.f_g ~d:f.Spr_flow.f_d ~delay:f.Spr_flow.f_critical_delay

(* What two runs of one instance must agree on, bit for bit. *)
type signature = {
  s_moves : int;
  s_g : int;
  s_d : int;
  s_delay : int64;
}

let signature ~moves ~g ~d ~delay =
  { s_moves = moves; s_g = g; s_d = d; s_delay = Int64.bits_of_float delay }

let run_signature (r : run) =
  let f = r.result in
  signature ~moves:r.moves ~g:f.Spr_flow.f_g ~d:f.Spr_flow.f_d ~delay:f.Spr_flow.f_critical_delay

let pp_signature s =
  Printf.sprintf "moves=%d G=%d D=%d delay=%.17g" s.s_moves s.s_g s.s_d
    (Int64.float_of_bits s.s_delay)

let routed_share route =
  1.0 -. (float_of_int (Rs.d_count route) /. float_of_int (max 1 (Rs.n_routable route)))
