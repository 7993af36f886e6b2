(* The composable flow engine: preset validation, analytical-seed
   determinism, the sa stage budget under every preset, run-to-run
   determinism of the seeded anneal, and stage-boundary crash +
   resume. *)

module Flow = Spr_flow
module Ap = Spr_flow.Ap_place
module Tool = Spr_core.Tool
module Config = Spr_core.Tool.Config
module Engine = Spr_anneal.Engine
module Rs = Spr_route.Route_state
module P = Spr_layout.Placement
module Arch = Spr_arch.Arch
module Nl = Spr_netlist.Netlist
module Gen = Spr_netlist.Generator
module Trace = Spr_obs.Trace
module Job = Spr_serve.Job

let rec rmrf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rmrf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let contains ~needle hay =
  let nh = String.length needle and lh = String.length hay in
  let rec go i = i + nh <= lh && (String.sub hay i nh = needle || go (i + 1)) in
  go 0

let preset ?(n_cells = 48) ?(tracks = 18) ~seed () =
  let nl = Gen.generate (Gen.default ~n_cells) ~seed in
  let arch = Arch.size_for ~tracks nl in
  let n = Nl.n_cells nl in
  let config =
    Config.(
      default |> with_seed seed
      |> with_anneal
           {
             (Engine.default_config ~n) with
             Engine.moves_per_temp = max 150 (2 * n);
             warmup_moves = 150;
             max_temperatures = 10;
           })
  in
  (arch, nl, config)

(* --- config / preset validation --- *)

let test_presets_resolve () =
  List.iter
    (fun name ->
      match Flow.stages_of_preset name with
      | Ok stages ->
        Alcotest.(check bool)
          (Printf.sprintf "preset %s non-empty" name)
          true (stages <> [])
      | Error e -> Alcotest.failf "preset %s rejected: %s" name e)
    Flow.preset_names

let test_bad_preset_rejected () =
  let arch, nl, config = preset ~seed:3 () in
  let config = Config.with_flow_preset "warp9" config in
  match Flow.run ~config arch nl with
  | Error (Tool.Invalid_config msg) ->
    (* The error must teach: every valid preset is listed. *)
    List.iter
      (fun name ->
        Alcotest.(check bool)
          (Printf.sprintf "error lists %s" name)
          true (contains ~needle:name msg))
      Flow.preset_names
  | Error e -> Alcotest.failf "wrong error class: %s" (Tool.error_to_string e)
  | Ok _ -> Alcotest.fail "bogus preset accepted"

let test_bad_stage_budget_rejected () =
  let _, _, config = preset ~seed:3 () in
  let config = Config.with_stage_budget "sa" (-2.0) config in
  match Config.validated config with
  | Error msg -> Alcotest.(check bool) "mentions budget" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "negative stage budget accepted"

let test_stage_budget_builder_overwrites () =
  let _, _, config = preset ~seed:3 () in
  let config =
    Config.(config |> with_stage_budget "sa" 5.0 |> with_stage_budget "sa" 9.0)
  in
  match List.assoc_opt "sa" config.Config.flow.Config.stage_budgets with
  | Some b -> Alcotest.(check (float 1e-9)) "last write wins" 9.0 b
  | None -> Alcotest.fail "budget missing"

(* --- analytical placement --- *)

let test_ap_deterministic () =
  let nl = Gen.generate (Gen.default ~n_cells:60) ~seed:11 in
  let arch = Arch.size_for ~tracks:20 nl in
  let run () =
    match Ap.run ~seed:11 arch nl with
    | Ok r -> r
    | Error e -> Alcotest.failf "ap failed: %s" e
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical slots" true (a.Ap.ap_slots = b.Ap.ap_slots);
  Alcotest.(check bool) "identical pinmaps" true (a.Ap.ap_pinmaps = b.Ap.ap_pinmaps);
  Alcotest.(check (float 1e-9)) "identical hpwl" a.Ap.ap_hpwl b.Ap.ap_hpwl;
  (* The legalized result must be a loadable placement. *)
  match P.create_from arch nl ~slots:a.Ap.ap_slots ~pinmaps:a.Ap.ap_pinmaps with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ap seed not legal: %s" e

(* --- the sa stage budget binds every preset --- *)

(* [--stage-budget sa=S] tightens the anneal's wall clock for the
   single-stage preset exactly as for multi-stage ones. *)
let test_sa_stage_budget_binds_sa_preset () =
  let arch, nl, config = preset ~n_cells:120 ~tracks:20 ~seed:7 () in
  let config =
    Config.(
      config |> with_flow_preset "sa" |> with_stage_budget "sa" 0.05
      |> with_anneal
           { (Engine.default_config ~n:(Nl.n_cells nl)) with Engine.moves_per_temp = 2000 })
  in
  let r = Flow.run_exn ~config arch nl in
  match r.Flow.f_portfolio with
  | Some p ->
    Alcotest.(check bool) "sa ended on its stage budget" true
      ((Tool.best_result p).Tool.status = Tool.Interrupted Tool.Time_budget)
  | None -> Alcotest.fail "preset sa ran no sa stage"

(* --- the sequential preset is deterministic and stage-ordered --- *)

let test_seq_preset_deterministic () =
  let arch, nl, config = preset ~seed:9 () in
  let config = Config.with_flow_preset "seq" config in
  let a = Flow.run_exn ~config arch nl in
  let b = Flow.run_exn ~config arch nl in
  Alcotest.(check string) "identical layout" (Rs.snapshot a.Flow.f_route)
    (Rs.snapshot b.Flow.f_route);
  Alcotest.(check bool) "no sa stage ran" true (a.Flow.f_tool = None);
  let names = List.map (fun s -> s.Flow.sg_name) a.Flow.f_stages in
  Alcotest.(check (list string)) "stage order" [ "greedy"; "route"; "sta" ] names

(* A flow that ends on a routed layout without an sta stage still
   writes a valid trace: the framer times the final layout itself. *)
let test_unannealed_flow_trace () =
  let arch, nl, config = preset ~seed:9 () in
  let path = Filename.temp_file "spr_flow_trace" ".jsonl" in
  let config = Config.(config |> with_flow_preset "ap+greedy+route" |> with_trace_file path) in
  let r = Flow.run_exn ~config arch nl in
  let events =
    match Trace.of_file path with
    | Ok events -> events
    | Error e -> Alcotest.failf "trace unreadable: %s" e
  in
  Sys.remove path;
  (match Trace.validate events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace invalid: %s" e);
  match List.rev events with
  | { Trace.ev = Trace.Run_end { g; d; _ }; _ } :: _ ->
    Alcotest.(check (pair int int))
      "run_end reports the final layout" (r.Flow.f_g, r.Flow.f_d) (g, d)
  | _ -> Alcotest.fail "trace does not end with run_end"

(* --- seeded anneal: run-to-run determinism --- *)

let masked_lines events =
  String.concat "\n" (List.map (fun e -> Trace.encode_line (Trace.mask_times e)) events)

let test_ap_sa_run_twice_identical () =
  let arch, nl, config = preset ~seed:21 () in
  let config = Config.(config |> with_flow_preset "ap+sa" |> with_trace_recording true) in
  let run () =
    let r = Flow.run_exn ~config arch nl in
    let trace =
      match r.Flow.f_portfolio with
      | Some p -> masked_lines (Tool.trace_events ~config nl (Tool.Fleet p))
      | None -> Alcotest.fail "ap+sa produced no sa result"
    in
    (trace, r.Flow.f_g, r.Flow.f_d, r.Flow.f_seed_temperature)
  in
  let t1, g1, d1, temp1 = run () in
  let t2, g2, d2, temp2 = run () in
  Alcotest.(check bool) "non-trivial trace" true (String.length t1 > 0);
  Alcotest.(check bool) "seed temperature probed" true (temp1 <> None);
  Alcotest.(check bool) "same seed temperature" true (temp1 = temp2);
  Alcotest.(check bool) "masked traces byte-identical" true (t1 = t2);
  Alcotest.(check int) "same g" g1 g2;
  Alcotest.(check int) "same d" d1 d2

(* --- stage-boundary kill + resume --- *)

let test_ap_sa_kill_resume () =
  let arch, nl, base = preset ~seed:23 () in
  let base = Config.with_flow_preset "ap+sa" base in
  let ref_dir = "flow-crash-ref" and dir = "flow-crash" in
  rmrf ref_dir;
  rmrf dir;
  Fun.protect
    ~finally:(fun () ->
      rmrf ref_dir;
      rmrf dir)
    (fun () ->
      let reference = Flow.run_exn ~config:(Config.with_run_dir ref_dir base) arch nl in
      (* Crash inside the sa stage: periodic snapshots survive, the
         final checkpoint does not — as after a real kill -9. The ap
         stage's checkpoint and flow.json were written at the stage
         boundary before sa began. *)
      let _crashed =
        Flow.run_exn
          ~config:
            Config.(
              base |> with_run_dir dir |> with_final_checkpoint false
              |> with_stop_after_accepted 40)
          arch nl
      in
      let resumed =
        Flow.run_exn ~config:(Config.with_run_dir dir base) ~resume_dir:dir arch nl
      in
      Alcotest.(check bool) "resume skipped the ap stage" true
        (List.exists
           (fun s -> s.Flow.sg_name = "ap" && s.Flow.sg_detail = "restored from checkpoint")
           resumed.Flow.f_stages);
      Alcotest.(check string) "resumed run lands exactly on the reference"
        (Rs.snapshot reference.Flow.f_route)
        (Rs.snapshot resumed.Flow.f_route);
      Alcotest.(check int) "same g" reference.Flow.f_g resumed.Flow.f_g;
      Alcotest.(check int) "same d" reference.Flow.f_d resumed.Flow.f_d;
      Alcotest.(check (float 1e-9)) "same delay" reference.Flow.f_critical_delay
        resumed.Flow.f_critical_delay;
      Alcotest.(check bool) "same seed temperature" true
        (reference.Flow.f_seed_temperature = resumed.Flow.f_seed_temperature))

(* --- serve admission --- *)

let test_job_spec_flow_validation () =
  let ok = { Job.default_spec with Job.circuit = Some "s1"; flow = "ap+sa" } in
  (match Job.validate_spec ok with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid flow rejected: %s" e);
  let bad = { Job.default_spec with Job.circuit = Some "s1"; flow = "warp9" } in
  (match Job.validate_spec bad with
  | Ok _ -> Alcotest.fail "bogus flow admitted"
  | Error e -> Alcotest.(check bool) "error names the flow" true (String.length e > 0));
  (* Specs written before the flow field existed decode as sa. *)
  let json =
    match Job.spec_to_json Job.default_spec with
    | Spr_obs.Json.Obj fields ->
      Spr_obs.Json.Obj (List.filter (fun (k, _) -> k <> "flow") fields)
    | _ -> Alcotest.fail "spec_to_json shape"
  in
  match Job.spec_of_json json with
  | Ok spec -> Alcotest.(check string) "old specs default to sa" "sa" spec.Job.flow
  | Error e -> Alcotest.failf "old spec rejected: %s" e

let () =
  Alcotest.run "spr_flow"
    [
      ( "config",
        [
          Alcotest.test_case "presets resolve" `Quick test_presets_resolve;
          Alcotest.test_case "bad preset rejected with vocabulary" `Quick
            test_bad_preset_rejected;
          Alcotest.test_case "negative stage budget rejected" `Quick
            test_bad_stage_budget_rejected;
          Alcotest.test_case "stage budget overwrite" `Quick
            test_stage_budget_builder_overwrites;
        ] );
      ("ap", [ Alcotest.test_case "deterministic and legal" `Quick test_ap_deterministic ]);
      ( "presets",
        [
          Alcotest.test_case "sa stage budget binds preset sa" `Quick
            test_sa_stage_budget_binds_sa_preset;
          Alcotest.test_case "seq deterministic" `Quick test_seq_preset_deterministic;
          Alcotest.test_case "ap+greedy+route trace" `Quick test_unannealed_flow_trace;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "ap+sa run twice: masked traces identical" `Quick
            test_ap_sa_run_twice_identical;
        ] );
      ( "resume",
        [ Alcotest.test_case "ap+sa kill mid-sa and resume" `Quick test_ap_sa_kill_resume ]
      );
      ( "serve",
        [
          Alcotest.test_case "job admission validates flow" `Quick
            test_job_spec_flow_validation;
        ] );
    ]
