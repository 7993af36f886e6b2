(* Run one measured instance in a child process and bring its result
   back through a pipe. The child starts from a copy of the parent's
   heap, which stays small: the parent builds no design and keeps only
   the children's summaries. So neither an instance's time nor its peak
   memory depends on the instances before it. The parent never spawns a
   domain, which keeps [Unix.fork] legal; it waits for every child it
   starts. *)

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let run (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let v = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc (v : ('a, string) result) [];
    close_out oc;
    Format.pp_print_flush Format.err_formatter ();
    flush stderr;
    (* Skip [at_exit]: the parent's buffers are not the child's to flush. *)
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v =
      match (Marshal.from_channel ic : ('a, string) result) with
      | v -> v
      | exception End_of_file -> Error "instance process ended without a result"
    in
    close_in ic;
    match waitpid pid with
    | Unix.WEXITED 0 -> v
    | Unix.WEXITED n -> Error (Printf.sprintf "instance process exited with %d" n)
    | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Error (Printf.sprintf "instance process stopped by signal %d" s))
