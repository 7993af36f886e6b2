type slot = { row : int; col : int }

type geom = {
  g_pins : (int * int) list;  (* (channel, col) of driver then sinks *)
  g_ch_lo : int;
  g_ch_hi : int;
  g_col_lo : int;
  g_col_hi : int;
}

type t = {
  arch : Spr_arch.Arch.t;
  nl : Spr_netlist.Netlist.t;
  slot_of_cell : int array;  (* cell -> row * cols + col *)
  cell_at_slot : int array;  (* encoded slot -> cell id or -1 *)
  pinmap_idx : int array;  (* cell -> palette index *)
  palettes : Spr_netlist.Pinmap.t array array;  (* cell -> palette *)
  geom_cache : geom option array;  (* net -> memoized pin geometry *)
  cell_nets : int list array;  (* cell -> nets to invalidate when it moves *)
}

let encode arch { row; col } = (row * arch.Spr_arch.Arch.cols) + col

let decode arch e = { row = e / arch.Spr_arch.Arch.cols; col = e mod arch.Spr_arch.Arch.cols }

let arch t = t.arch

let netlist t = t.nl

(* Caches start cold; [cell_nets] is fixed by the netlist and drives
   invalidation when a cell moves or changes pinmap. *)
let fresh_caches nl =
  ( Array.make (Spr_netlist.Netlist.n_nets nl) None,
    Array.init (Spr_netlist.Netlist.n_cells nl) (Spr_netlist.Netlist.nets_of_cell nl) )

let legal_kind_at arch kind s =
  if Spr_netlist.Cell_kind.is_io kind then
    Spr_arch.Arch.is_perimeter arch ~row:s.row ~col:s.col
  else true

let create arch nl ~rng =
  match Spr_arch.Arch.check_fits arch nl with
  | Error e -> Error e
  | Ok () ->
    let n = Spr_netlist.Netlist.n_cells nl in
    let n_slots = Spr_arch.Arch.n_slots arch in
    let slot_of_cell = Array.make n (-1) in
    let cell_at_slot = Array.make n_slots (-1) in
    (* Perimeter and interior slot pools, both shuffled. *)
    let perimeter = ref [] and interior = ref [] in
    for row = 0 to arch.Spr_arch.Arch.rows - 1 do
      for col = 0 to arch.Spr_arch.Arch.cols - 1 do
        let e = encode arch { row; col } in
        if Spr_arch.Arch.is_perimeter arch ~row ~col then perimeter := e :: !perimeter
        else interior := e :: !interior
      done
    done;
    let perimeter = Array.of_list !perimeter in
    let interior = Array.of_list !interior in
    Spr_util.Rng.shuffle_in_place rng perimeter;
    Spr_util.Rng.shuffle_in_place rng interior;
    let peri_next = ref 0 and inter_next = ref 0 in
    let take_perimeter () =
      let e = perimeter.(!peri_next) in
      incr peri_next;
      e
    in
    let take_any () =
      (* Non-pad cells prefer interior slots, spilling onto remaining
         perimeter slots when the interior is full. *)
      if !inter_next < Array.length interior then begin
        let e = interior.(!inter_next) in
        incr inter_next;
        e
      end
      else take_perimeter ()
    in
    let place c e =
      slot_of_cell.(c) <- e;
      cell_at_slot.(e) <- c
    in
    Array.iter
      (fun cell ->
        if Spr_netlist.Cell_kind.is_io cell.Spr_netlist.Netlist.kind then
          place cell.Spr_netlist.Netlist.id (take_perimeter ()))
      (Spr_netlist.Netlist.cells nl);
    Array.iter
      (fun cell ->
        if not (Spr_netlist.Cell_kind.is_io cell.Spr_netlist.Netlist.kind) then
          place cell.Spr_netlist.Netlist.id (take_any ()))
      (Spr_netlist.Netlist.cells nl);
    let palettes =
      Array.init n (fun c ->
          Spr_netlist.Pinmap.palette ~n_pins:(Spr_netlist.Netlist.n_pins nl c))
    in
    let geom_cache, cell_nets = fresh_caches nl in
    Ok
      {
        arch;
        nl;
        slot_of_cell;
        cell_at_slot;
        pinmap_idx = Array.make n 0;
        palettes;
        geom_cache;
        cell_nets;
      }

let create_exn arch nl ~rng =
  match create arch nl ~rng with
  | Ok t -> t
  | Error e -> invalid_arg ("Placement.create: " ^ e)

let create_from arch nl ~slots ~pinmaps =
  let n = Spr_netlist.Netlist.n_cells nl in
  if Array.length slots <> n || Array.length pinmaps <> n then
    Error "create_from: slots/pinmaps must have one entry per cell"
  else begin
    let n_slots = Spr_arch.Arch.n_slots arch in
    let slot_of_cell = Array.make n (-1) in
    let cell_at_slot = Array.make n_slots (-1) in
    let palettes =
      Array.init n (fun c ->
          Spr_netlist.Pinmap.palette ~n_pins:(Spr_netlist.Netlist.n_pins nl c))
    in
    let error = ref None in
    let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
    Array.iteri
      (fun c s ->
        let kind = (Spr_netlist.Netlist.cell nl c).Spr_netlist.Netlist.kind in
        if s.row < 0 || s.row >= arch.Spr_arch.Arch.rows || s.col < 0
           || s.col >= arch.Spr_arch.Arch.cols
        then fail "cell %d: slot (%d,%d) out of range" c s.row s.col
        else if not (legal_kind_at arch kind s) then
          fail "cell %d: pad placed off the perimeter at (%d,%d)" c s.row s.col
        else begin
          let e = encode arch s in
          if cell_at_slot.(e) <> -1 then fail "slot (%d,%d) assigned twice" s.row s.col
          else begin
            cell_at_slot.(e) <- c;
            slot_of_cell.(c) <- e
          end
        end)
      slots;
    Array.iteri
      (fun c idx ->
        if idx < 0 || idx >= Array.length palettes.(c) then
          fail "cell %d: pinmap index %d out of range" c idx)
      pinmaps;
    match !error with
    | Some e -> Error e
    | None ->
      let geom_cache, cell_nets = fresh_caches nl in
      Ok
        {
          arch;
          nl;
          slot_of_cell;
          cell_at_slot;
          pinmap_idx = Array.copy pinmaps;
          palettes;
          geom_cache;
          cell_nets;
        }
  end

let slot_of t c = decode t.arch t.slot_of_cell.(c)

let cell_at t s =
  let c = t.cell_at_slot.(encode t.arch s) in
  if c = -1 then None else Some c

let legal_at t ~cell s = legal_kind_at t.arch (Spr_netlist.Netlist.cell t.nl cell).Spr_netlist.Netlist.kind s

let swap_legal t a b =
  let ok_at occupant target =
    match occupant with
    | None -> true
    | Some c -> legal_at t ~cell:c target
  in
  ok_at (cell_at t a) b && ok_at (cell_at t b) a

(* Invalidation lives inside the mutators so it covers both directions
   of a transaction: journal undo closures re-invoke the same mutators,
   so a rollback invalidates exactly the nets it restores. *)
let invalidate_cell t c =
  List.iter (fun net -> t.geom_cache.(net) <- None) t.cell_nets.(c)

let swap_slots t a b =
  let ea = encode t.arch a and eb = encode t.arch b in
  let ca = t.cell_at_slot.(ea) and cb = t.cell_at_slot.(eb) in
  t.cell_at_slot.(ea) <- cb;
  t.cell_at_slot.(eb) <- ca;
  if ca <> -1 then begin
    t.slot_of_cell.(ca) <- eb;
    invalidate_cell t ca
  end;
  if cb <> -1 then begin
    t.slot_of_cell.(cb) <- ea;
    invalidate_cell t cb
  end

let pinmap_index t c = t.pinmap_idx.(c)

let palette_size t c = Array.length t.palettes.(c)

let set_pinmap t ~cell ~index =
  assert (index >= 0 && index < Array.length t.palettes.(cell));
  t.pinmap_idx.(cell) <- index;
  invalidate_cell t cell

let pin_side t ~cell ~pin = t.palettes.(cell).(t.pinmap_idx.(cell)).(pin)

(* Channel k runs below row k, channel k+1 above it. Both read the
   encoded slot directly rather than through a decoded [slot]. *)
let pin_channel t ~cell ~pin =
  let row = t.slot_of_cell.(cell) / t.arch.Spr_arch.Arch.cols in
  match pin_side t ~cell ~pin with
  | Spr_netlist.Pinmap.Bottom -> row
  | Spr_netlist.Pinmap.Top -> row + 1

let pin_col t ~cell ~pin =
  ignore pin;
  t.slot_of_cell.(cell) mod t.arch.Spr_arch.Arch.cols

let compute_geom t net_id =
  let net = Spr_netlist.Netlist.net t.nl net_id in
  let driver = net.Spr_netlist.Netlist.driver in
  let out_pin = (Spr_netlist.Netlist.cell t.nl driver).Spr_netlist.Netlist.n_inputs in
  let ch = pin_channel t ~cell:driver ~pin:out_pin and col = pin_col t ~cell:driver ~pin:out_pin in
  let clo = ref ch and chi = ref ch and xlo = ref col and xhi = ref col in
  let sinks = net.Spr_netlist.Netlist.sinks in
  let rest = ref [] in
  for i = Array.length sinks - 1 downto 0 do
    let c, pin = sinks.(i) in
    let sc = pin_channel t ~cell:c ~pin and sx = pin_col t ~cell:c ~pin in
    clo := min !clo sc;
    chi := max !chi sc;
    xlo := min !xlo sx;
    xhi := max !xhi sx;
    rest := (sc, sx) :: !rest
  done;
  { g_pins = (ch, col) :: !rest; g_ch_lo = !clo; g_ch_hi = !chi; g_col_lo = !xlo; g_col_hi = !xhi }

let geom t net_id =
  match t.geom_cache.(net_id) with
  | Some g -> g
  | None ->
    let g = compute_geom t net_id in
    t.geom_cache.(net_id) <- Some g;
    g

let net_pin_positions t net_id = (geom t net_id).g_pins

let net_channel_span t net_id =
  let g = geom t net_id in
  match g.g_pins with [] -> None | _ -> Some (g.g_ch_lo, g.g_ch_hi)

let net_col_span t net_id =
  let g = geom t net_id in
  match g.g_pins with [] -> None | _ -> Some (g.g_col_lo, g.g_col_hi)

let half_perimeter t net_id =
  let g = geom t net_id in
  match g.g_pins with
  | [] -> 0
  | _ -> g.g_ch_hi - g.g_ch_lo + (g.g_col_hi - g.g_col_lo)

let random_slot t rng =
  decode t.arch (Spr_util.Rng.int rng (Spr_arch.Arch.n_slots t.arch))

let random_occupied_slot t rng =
  let c = Spr_util.Rng.int rng (Array.length t.slot_of_cell) in
  decode t.arch t.slot_of_cell.(c)

let check_caches t =
  let error = ref None in
  Array.iteri
    (fun net cached ->
      match cached with
      | None -> ()
      | Some g ->
        if !error = None && g <> compute_geom t net then
          error :=
            Some
              (Printf.sprintf "net %d: memoized pin geometry differs from recomputation" net))
    t.geom_cache;
  match !error with Some e -> Error e | None -> Ok ()

let check t =
  let n_slots = Spr_arch.Arch.n_slots t.arch in
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  Array.iteri
    (fun c e ->
      if e < 0 || e >= n_slots then fail "cell %d on invalid slot %d" c e
      else if t.cell_at_slot.(e) <> c then fail "slot map inconsistent for cell %d" c
      else begin
        let s = decode t.arch e in
        if not (legal_at t ~cell:c s) then
          fail "cell %d (%s) illegally placed at (%d,%d)" c
            (Spr_netlist.Cell_kind.to_string
               (Spr_netlist.Netlist.cell t.nl c).Spr_netlist.Netlist.kind)
            s.row s.col
      end)
    t.slot_of_cell;
  Array.iteri
    (fun e c -> if c <> -1 && t.slot_of_cell.(c) <> e then fail "slot %d points to wrong cell" e)
    t.cell_at_slot;
  match !error with
  | Some e -> Error e
  | None -> check_caches t
