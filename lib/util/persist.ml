let fnv_offset = 0xCBF29CE484222325L

let fnv_prime = 0x100000001B3L

let fnv1a64 s =
  let h = ref fnv_offset in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let checksum_hex s = Printf.sprintf "%016Lx" (fnv1a64 s)

let float_to_hex f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let float_of_hex s =
  if String.length s <> 16 then None
  else
    match Int64.of_string_opt ("0x" ^ s) with
    | Some bits -> Some (Int64.float_of_bits bits)
    | None -> None

let int64_to_hex i = Printf.sprintf "%016Lx" i

let int64_of_hex s =
  if String.length s <> 16 then None else Int64.of_string_opt ("0x" ^ s)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let atomic_write ?(durable = false) path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc text;
     if durable then begin
       flush oc;
       Unix.fsync (Unix.descr_of_out_channel oc)
     end;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  if durable then fsync_dir (Filename.dirname path)

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
    match
      let len = in_channel_length ic in
      really_input_string ic len
    with
    | text ->
      close_in_noerr ic;
      Ok text
    | exception e ->
      close_in_noerr ic;
      Error (Printexc.to_string e))

let ensure_dir path =
  let is_dir () = try Sys.is_directory path with Sys_error _ -> false in
  (* Another domain or process may create the path between the exists
     check and the mkdir; losing that race is fine when a directory is
     what won it. *)
  (if not (Sys.file_exists path) then
     try Sys.mkdir path 0o755 with Sys_error _ as e -> if not (is_dir ()) then raise e);
  if not (is_dir ()) then
    invalid_arg (Printf.sprintf "Persist.ensure_dir: %s exists and is not a directory" path)
