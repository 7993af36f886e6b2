(* End-to-end tests that drive the spr binary: budget-limited runs exit
   cleanly with a best-so-far layout, and SIGINT leaves behind a
   resumable run directory. The CLI is located relative to this test
   executable (_build/default/test/ -> _build/default/bin/), so the
   tests work under both [dune runtest] and [dune exec]. *)

let spr =
  Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat ".." "bin/spr_cli.exe")

let rec rmrf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rmrf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let has_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
  n = 0 || scan 0

(* Run the CLI to completion, capturing combined stdout/stderr. *)
let run_cli args =
  let cmd = Printf.sprintf "%s %s 2>&1" spr (String.concat " " args) in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buf)

let check_exit_zero label = function
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "%s: exit code %d" label n
  | Unix.WSIGNALED n -> Alcotest.failf "%s: killed by signal %d" label n
  | Unix.WSTOPPED n -> Alcotest.failf "%s: stopped by signal %d" label n

(* Rebuild the run's netlist the way [spr route --run-resume] does: from the
   recorded circuit name when there is one (net ids must match the
   original construction), else from the copied BLIF bytes. *)
let load_run_dir dir =
  let circuit =
    let ic = open_in (Filename.concat dir "meta") in
    let rec scan () =
      match input_line ic with
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ "circuit"; name ] -> Some name
        | _ -> scan ())
      | exception End_of_file -> None
    in
    let found = scan () in
    close_in ic;
    found
  in
  let nl =
    match circuit with
    | Some name -> (
      match Spr_netlist.Circuits.find name with
      | Some spec -> Spr_netlist.Circuits.make spec
      | None -> Alcotest.failf "unknown circuit %s in %s/meta" name dir)
    | None -> (
      match Spr_netlist.Blif.parse_file (Filename.concat dir "design.blif") with
      | Error e -> Alcotest.failf "design.blif: %s" e
      | Ok nl -> nl)
  in
  match Spr_core.Checkpoint.V2.load_latest nl ~dir with
  | Error e -> Alcotest.failf "no resumable checkpoint in %s: %s" dir e
  | Ok loaded -> (nl, loaded)

(* A tiny wall-clock budget must stop the run early, exit 0, report the
   interruption, and leave a resumable run directory behind. *)
let test_time_budget_interrupts () =
  let dir = "cli-time-budget" in
  rmrf dir;
  let status, out =
    run_cli
      [ "route"; "--circuit"; "s1"; "--effort"; "standard"; "--seed"; "2";
        "--time-budget"; "0.4"; "--run-dir"; dir ]
  in
  check_exit_zero "time-budget run" status;
  Alcotest.(check bool)
    (Printf.sprintf "reports the interruption (got: %s)" out)
    true
    (has_substring ~sub:"interrupted (time budget)" out);
  Alcotest.(check bool) "points at --run-resume" true (has_substring ~sub:"--run-resume" out);
  let _ = load_run_dir dir in
  rmrf dir

(* A move budget behaves the same way, and the run dir then resumes to
   the end. *)
let test_move_budget_then_resume () =
  let dir = "cli-move-budget" in
  rmrf dir;
  let status, out =
    run_cli
      [ "route"; "--circuit"; "s1"; "--effort"; "quick"; "--seed"; "2";
        "--max-moves"; "900"; "--run-dir"; dir ]
  in
  check_exit_zero "move-budget run" status;
  Alcotest.(check bool)
    (Printf.sprintf "reports the interruption (got: %s)" out)
    true
    (has_substring ~sub:"interrupted (move budget)" out);
  (* the pre-grouping spelling is gone: unknown option, nonzero exit *)
  let status, _ = run_cli [ "route"; "--resume"; dir ] in
  (match status with
  | Unix.WEXITED 0 -> Alcotest.fail "removed --resume alias still accepted"
  | _ -> ());
  let status, out = run_cli [ "route"; "--run-resume"; dir ] in
  check_exit_zero "resumed run" status;
  Alcotest.(check bool)
    (Printf.sprintf "resume announces its snapshot (got: %s)" out)
    true
    (has_substring ~sub:"resuming from" out);
  Alcotest.(check bool)
    (Printf.sprintf "resumed run completes (got: %s)" out)
    true
    (not (has_substring ~sub:"interrupted" out));
  rmrf dir

(* A one-replica run dir that lost every snapshot still resumes: the
   runner restarts the anneal from scratch, as it does for a fleet
   replica or a served job with nothing to load. *)
let test_resume_without_snapshots () =
  let dir = "cli-no-snapshots" in
  rmrf dir;
  let status, _ =
    run_cli
      [ "route"; "--circuit"; "s1"; "--effort"; "quick"; "--seed"; "2";
        "--max-moves"; "900"; "--run-dir"; dir ]
  in
  check_exit_zero "move-budget run" status;
  Array.iter
    (fun f ->
      if String.starts_with ~prefix:"snap-" f then Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  let status, out = run_cli [ "route"; "--run-resume"; dir ] in
  check_exit_zero "resume with no snapshots" status;
  Alcotest.(check bool)
    (Printf.sprintf "restarted run completes (got: %s)" out)
    true
    (has_substring ~sub:"flow sa" out && not (has_substring ~sub:"interrupted" out));
  rmrf dir

(* A resumed run keeps the label of the run it continues: the run dir
   of a BLIF run records the file's name, so fresh and resumed traces
   both say "c60". *)
let test_resume_keeps_label () =
  let dir = "cli-label" in
  let design = Filename.concat dir "c60.blif" in
  rmrf dir;
  Sys.mkdir dir 0o755;
  let t1 = Filename.concat dir "t1.jsonl" and t2 = Filename.concat dir "t2.jsonl" in
  let status, _ =
    run_cli [ "generate"; "--cells"; "60"; "--seed"; "4"; "-o"; design ]
  in
  check_exit_zero "generate" status;
  let run_dir = Filename.concat dir "run" in
  let status, _ =
    run_cli
      [ "route"; design; "--tracks"; "16"; "--effort"; "quick"; "--seed"; "2";
        "--max-moves"; "600"; "--run-dir"; run_dir; "--trace"; t1 ]
  in
  check_exit_zero "fresh BLIF run" status;
  let status, out = run_cli [ "route"; "--run-resume"; run_dir; "--trace"; t2 ] in
  check_exit_zero "resumed BLIF run" status;
  let label_of path =
    match Spr_util.Persist.read_file path with
    | Error e -> Alcotest.failf "%s: %s (run output: %s)" path e out
    | Ok text -> (
      match Spr_obs.Trace.of_string text with
      | Error e -> Alcotest.failf "%s does not decode: %s" path e
      | Ok events ->
        List.find_map
          (function
            | { Spr_obs.Trace.ev = Spr_obs.Trace.Run_start { label; _ }; _ } -> Some label
            | _ -> None)
          events)
  in
  Alcotest.(check (option string)) "fresh trace label" (Some "c60") (label_of t1);
  Alcotest.(check (option string)) "resumed trace label" (Some "c60") (label_of t2);
  rmrf dir

(* A two-replica portfolio end to end: per-replica reporting, a winner,
   and per-replica snapshot rotations plus a recorded run meta that
   lets --run-resume rebuild the fleet. *)
let test_parallel_smoke () =
  let dir = "cli-parallel" in
  rmrf dir;
  let status, out =
    run_cli
      [ "route"; "--circuit"; "s1"; "--effort"; "quick"; "--seed"; "2";
        "--parallel"; "2"; "--exchange"; "best:4"; "--run-dir"; dir ]
  in
  check_exit_zero "parallel run" status;
  Alcotest.(check bool)
    (Printf.sprintf "reports both replicas (got: %s)" out)
    true
    (has_substring ~sub:"replica 0" out && has_substring ~sub:"replica 1" out);
  Alcotest.(check bool)
    (Printf.sprintf "announces a winner (got: %s)" out)
    true
    (has_substring ~sub:"portfolio: replica" out);
  (* fleet runs rotate per-replica snapshots, not serial ones *)
  Alcotest.(check bool) "replica 0 snapshots" true
    (Spr_core.Checkpoint.V2.snapshot_files ~replica:0 dir <> []);
  Alcotest.(check bool) "replica 1 snapshots" true
    (Spr_core.Checkpoint.V2.snapshot_files ~replica:1 dir <> []);
  Alcotest.(check (list (pair int string))) "no serial snapshots" []
    (Spr_core.Checkpoint.V2.snapshot_files dir);
  (* the meta records the fleet shape for --run-resume *)
  let meta =
    match Spr_util.Persist.read_file (Filename.concat dir "meta") with
    | Ok text -> text
    | Error e -> Alcotest.failf "meta: %s" e
  in
  Alcotest.(check bool) "meta records parallel" true (has_substring ~sub:"parallel 2" meta);
  Alcotest.(check bool) "meta records exchange" true (has_substring ~sub:"exchange best:4" meta);
  Alcotest.(check bool) "meta records scheduler" true
    (has_substring ~sub:"scheduler barrier" meta);
  let status, out = run_cli [ "route"; "--run-resume"; dir ] in
  check_exit_zero "fleet resume" status;
  Alcotest.(check bool)
    (Printf.sprintf "resume rebuilds the fleet (got: %s)" out)
    true
    (has_substring ~sub:"resuming portfolio of 2 replicas" out);
  rmrf dir

(* --trace/--report leave artifacts behind that spr report validates
   against the trace schema and re-renders as the dynamics table. *)
let test_trace_report_artifacts () =
  let trace = Filename.temp_file "spr_cli_trace" ".jsonl" in
  let report = Filename.temp_file "spr_cli_report" ".json" in
  let status, out =
    run_cli
      [ "route"; "--circuit"; "s1"; "--effort"; "quick"; "--seed"; "2";
        "--trace"; trace; "--report"; report ]
  in
  check_exit_zero "traced run" status;
  Alcotest.(check bool)
    (Printf.sprintf "announces the artifacts (got: %s)" out)
    true
    (has_substring ~sub:"trace written to" out && has_substring ~sub:"report written to" out);
  let status, out = run_cli [ "report"; trace; "--check" ] in
  check_exit_zero "spr report --check" status;
  Alcotest.(check bool)
    (Printf.sprintf "schema-valid trace (got: %s)" out)
    true
    (has_substring ~sub:"valid spr-trace-1 trace" out);
  let status, out = run_cli [ "report"; trace ] in
  check_exit_zero "spr report" status;
  Alcotest.(check bool)
    (Printf.sprintf "re-renders the dynamics table (got: %s)" out)
    true
    (has_substring ~sub:"%G-unrt" out);
  (match Spr_util.Persist.read_file report with
  | Error e -> Alcotest.failf "report.json unreadable: %s" e
  | Ok text -> (
    match Spr_obs.Json.parse text with
    | Error e -> Alcotest.failf "report.json does not parse: %s" e
    | Ok j -> (
      match Spr_obs.Report.of_json j with
      | Error e -> Alcotest.failf "report.json does not decode: %s" e
      | Ok _ -> ())));
  Sys.remove trace;
  Sys.remove report

(* Every flow reports the same way: a multi-stage flow prints the final
   audit verdict and the anneal's per-phase profile. *)
let test_flow_selfcheck_profile () =
  let status, out =
    run_cli
      [ "route"; "--circuit"; "s1"; "--effort"; "quick"; "--seed"; "2"; "--flow"; "ap+sa";
        "--selfcheck"; "--obs-profile" ]
  in
  check_exit_zero "ap+sa selfcheck run" status;
  Alcotest.(check bool)
    (Printf.sprintf "prints the selfcheck verdict (got: %s)" out)
    true
    (has_substring ~sub:"selfcheck: zero audit findings" out);
  Alcotest.(check bool)
    (Printf.sprintf "prints the per-phase profile (got: %s)" out)
    true
    (has_substring ~sub:"move pipeline:" out
    && has_substring ~sub:"per-temperature phase times" out)

let test_bad_parallel_flags () =
  let status, _ = run_cli [ "route"; "--circuit"; "s1"; "--parallel"; "0" ] in
  (match status with
  | Unix.WEXITED 0 -> Alcotest.fail "--parallel 0 accepted"
  | _ -> ());
  let status, _ =
    run_cli [ "route"; "--circuit"; "s1"; "--parallel"; "2"; "--exchange"; "best:0" ]
  in
  match status with
  | Unix.WEXITED 0 -> Alcotest.fail "--exchange best:0 accepted"
  | _ -> ()

(* SIGINT mid-anneal: the handler finishes the in-flight move, writes a
   final checkpoint, and the process exits 0 with the best-so-far
   layout instead of dying. *)
let test_sigint_writes_resumable_checkpoint () =
  let dir = "cli-sigint" in
  rmrf dir;
  let out_path = Filename.temp_file "spr_cli_sigint" ".out" in
  let out_fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process spr
      [| spr; "route"; "--circuit"; "s1"; "--effort"; "standard"; "--seed"; "2";
         "--run-dir"; dir |]
      Unix.stdin out_fd out_fd
  in
  Unix.close out_fd;
  (* s1 at standard effort anneals for >10s; by 2s the handlers are
     installed and the run is mid-schedule. *)
  Unix.sleepf 2.0;
  Unix.kill pid Sys.sigint;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "CLI did not exit within 60s of SIGINT"
      end
      else begin
        Unix.sleepf 0.2;
        wait ()
      end
    | _, status -> status
  in
  let status = wait () in
  let out =
    let ic = open_in_bin out_path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Sys.remove out_path;
    s
  in
  check_exit_zero "interrupted CLI" status;
  Alcotest.(check bool)
    (Printf.sprintf "reports the interruption (got: %s)" out)
    true
    (has_substring ~sub:"interrupted (interrupt)" out);
  let _, loaded = load_run_dir dir in
  Alcotest.(check bool) "final checkpoint present" true (loaded.Spr_core.Checkpoint.V2.seq >= 1);
  rmrf dir

let () =
  Alcotest.run "spr_cli"
    [
      ( "budgets",
        [
          Alcotest.test_case "time budget exits 0 and reports interrupted" `Slow
            test_time_budget_interrupts;
          Alcotest.test_case "move budget interrupts, then resumes to completion" `Slow
            test_move_budget_then_resume;
          Alcotest.test_case "resume without snapshots restarts fresh" `Slow
            test_resume_without_snapshots;
          Alcotest.test_case "resumed BLIF run keeps the run's label" `Slow
            test_resume_keeps_label;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "two-replica portfolio end to end" `Slow test_parallel_smoke;
          Alcotest.test_case "bad flags rejected" `Quick test_bad_parallel_flags;
        ] );
      ( "obs",
        [
          Alcotest.test_case "--trace/--report artifacts round-trip through spr report" `Slow
            test_trace_report_artifacts;
          Alcotest.test_case "ap+sa prints selfcheck verdict and profile" `Slow
            test_flow_selfcheck_profile;
        ] );
      ( "signals",
        [
          Alcotest.test_case "SIGINT writes a final resumable checkpoint" `Slow
            test_sigint_writes_resumable_checkpoint;
        ] );
    ]
