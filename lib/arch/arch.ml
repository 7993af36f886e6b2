type vscheme =
  | V_full
  | V_span of int

type t = {
  rows : int;
  cols : int;
  tracks : int;
  vtracks : int;
  n_channels : int;
  hscheme : Segmentation.scheme;
  hsegs : Spr_util.Interval.t array array array;
  vsegs : Spr_util.Interval.t array array array;
  avg_hseg : float;
}

(* Stagger vertical cut positions with column and track so that spine
   failures at one column can be recovered at a neighbour. *)
let vertical_track ~n_channels ~col ~vtrack = function
  | V_full -> [| Spr_util.Interval.make 0 (n_channels - 1) |]
  | V_span span ->
    let span = max 1 (min span n_channels) in
    let offset = (col + (vtrack * 2)) mod span in
    let segs = ref [] in
    let pos = ref 0 in
    let first = span - offset in
    while !pos < n_channels do
      let len = if !pos = 0 then first else span in
      let len = min len (n_channels - !pos) in
      segs := Spr_util.Interval.make !pos (!pos + len - 1) :: !segs;
      pos := !pos + len
    done;
    Array.of_list (List.rev !segs)

let default_vschemes ~vtracks ~n_channels =
  let half = max 2 (n_channels / 2) in
  Array.init vtracks (fun v -> if v < (vtracks + 1) / 2 then V_full else V_span half)

let create ~rows ~cols ~tracks ?(hscheme = Segmentation.Actel_like) ?(vtracks = 5) ?vschemes ()
    =
  if rows < 1 || cols < 2 || tracks < 1 || vtracks < 1 then
    invalid_arg "Arch.create: non-positive dimensions";
  let n_channels = rows + 1 in
  let vschemes =
    match vschemes with
    | Some v ->
      if Array.length v <> vtracks then
        invalid_arg "Arch.create: vschemes length must equal vtracks";
      v
    | None -> default_vschemes ~vtracks ~n_channels
  in
  let hsegs =
    Array.init n_channels (fun channel ->
        Array.init tracks (fun track -> Segmentation.track hscheme ~cols ~channel ~track))
  in
  let vsegs =
    Array.init cols (fun col ->
        Array.init vtracks (fun vtrack ->
            vertical_track ~n_channels ~col ~vtrack vschemes.(vtrack)))
  in
  let avg_hseg = Segmentation.average_segment_length hscheme ~cols ~tracks in
  { rows; cols; tracks; vtracks; n_channels; hscheme; hsegs; vsegs; avg_hseg }

let with_tracks t tracks =
  create ~rows:t.rows ~cols:t.cols ~tracks ~hscheme:t.hscheme ~vtracks:t.vtracks ()

let n_slots t = t.rows * t.cols

let is_perimeter t ~row ~col = row = 0 || row = t.rows - 1 || col = 0 || col = t.cols - 1

let n_perimeter_slots t =
  if t.rows = 1 then t.cols
  else if t.rows = 2 then 2 * t.cols
  else (2 * t.cols) + (2 * (t.rows - 2))

let check_fits t nl =
  let counts = Spr_netlist.Netlist.counts nl in
  let n_cells = Spr_netlist.Netlist.n_cells nl in
  let n_io = counts.Spr_netlist.Netlist.n_input + counts.Spr_netlist.Netlist.n_output in
  if n_cells > n_slots t then
    Error
      (Printf.sprintf "netlist has %d cells but the fabric only %d slots" n_cells (n_slots t))
  else if n_io > n_perimeter_slots t then
    Error
      (Printf.sprintf "netlist has %d I/O pads but the fabric only %d perimeter slots" n_io
         (n_perimeter_slots t))
  else Ok ()

let hsegments t ~channel ~track = t.hsegs.(channel).(track)

let vsegments t ~col ~vtrack = t.vsegs.(col).(vtrack)

(* Segments partition their extent, so covering [lo, hi] means locating
   the segment containing [lo] (binary search) and walking right to the
   one containing [hi]. Both searches are plain loops over the array: the
   routers probe a cover per track per candidate, so neither may
   allocate. *)
let cover_start segs ~lo ~hi =
  let n = Array.length segs in
  if n = 0 || lo < segs.(0).Spr_util.Interval.lo || hi > segs.(n - 1).Spr_util.Interval.hi then
    -1
  else begin
    let a = ref 0 and b = ref (n - 1) and found = ref (-1) in
    while !found < 0 do
      let mid = (!a + !b) / 2 in
      let s = segs.(mid) in
      if Spr_util.Interval.contains s lo then found := mid
      else if lo < s.Spr_util.Interval.lo then b := mid - 1
      else a := mid + 1
    done;
    !found
  end

let cover_end segs first ~hi =
  let i = ref first in
  while segs.(!i).Spr_util.Interval.hi < hi do
    incr i
  done;
  !i

let find_cover segs (span : Spr_util.Interval.t) =
  let lo = span.Spr_util.Interval.lo and hi = span.Spr_util.Interval.hi in
  let first = cover_start segs ~lo ~hi in
  if first < 0 then None else Some (first, cover_end segs first ~hi)

let avg_hseg_length t = t.avg_hseg

(* Taller fabrics have more channels to cross, so feedthrough demand per
   column grows with the row count; real antifuse families scale their
   vertical track budget accordingly. *)
let default_vtracks_for ~rows = max 5 ((rows + 1) / 2)

let size_for ?(aspect = 3.0) ?(utilization = 0.85) ?(tracks = 24) ?hscheme ?vtracks nl =
  let n_cells = Spr_netlist.Netlist.n_cells nl in
  let counts = Spr_netlist.Netlist.counts nl in
  let n_io = counts.Spr_netlist.Netlist.n_input + counts.Spr_netlist.Netlist.n_output in
  let slots = int_of_float (ceil (float_of_int n_cells /. utilization)) in
  let rows = max 2 (int_of_float (Float.round (sqrt (float_of_int slots /. aspect)))) in
  let cols = max 2 (int_of_float (ceil (float_of_int slots /. float_of_int rows))) in
  (* Widen until the perimeter holds the pads. *)
  let rec widen cols =
    let perimeter = if rows = 2 then 2 * cols else (2 * cols) + (2 * (rows - 2)) in
    if perimeter >= n_io then cols else widen (cols + 1)
  in
  let cols = widen cols in
  let vtracks = match vtracks with Some v -> v | None -> default_vtracks_for ~rows in
  create ~rows ~cols ~tracks ?hscheme ~vtracks ()

let pp ppf t =
  Format.fprintf ppf "%dx%d fabric, %d channels x %d tracks (%s), %d vtracks/col" t.rows
    t.cols t.n_channels t.tracks
    (Segmentation.scheme_to_string t.hscheme)
    t.vtracks
