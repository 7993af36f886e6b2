module I = Spr_util.Interval
module J = Spr_util.Journal
module Q = Spr_util.Iqueue

type hroute = {
  h_channel : int;
  h_track : int;
  h_slo : int;
  h_shi : int;
  h_span : I.t;
}

type vroute = {
  v_col : int;
  v_vtrack : int;
  v_slo : int;
  v_shi : int;
  v_span : I.t;
}

(* Per-net routing status. [in_ug]/[missing] mirror the queue tables and
   the [d_flag] mirrors the net's contribution to the D count; the
   mirrors exist so every transition is O(1) and undoable. *)
type nstat = {
  mutable needs_v : bool;
  mutable vr : vroute option;
  mutable demands : (int * I.t) list;
  mutable hroutes : (int * hroute) list;
  mutable in_ug : bool;
  mutable missing : int list;
  mutable d_flag : bool;
}

type t = {
  place : Spr_layout.Placement.t;
  arch : Spr_arch.Arch.t;
  nl : Spr_netlist.Netlist.t;
  h_owner : int array array array;  (* channel -> track -> seg -> net / -1 *)
  v_owner : int array array array;  (* col -> vtrack -> seg -> net / -1 *)
  (* Free-track maps, derived from the owners and written with them:
     bit [b] of word [w] of a cell stands for track [w * word_bits + b],
     set when that track's segment holding the cell is free. *)
  hwords : int;  (* words per [hfree] cell *)
  vwords : int;  (* words per [vfree] cell *)
  hfree : int array array;  (* channel -> col * hwords + word *)
  vfree : int array array;  (* col -> channel * vwords + word *)
  nstats : nstat array;
  ug : Q.t;  (* U_G retry queue, keyed by estimated length (half-perimeter) *)
  ud : Q.t array;  (* per channel U_D,R queues, keyed by demand span length *)
  dirty : Spr_util.Bitset.t;  (* nets touched since the last [clear_dirty] *)
  routable : bool array;  (* >= 2 terminals, fixed by the netlist *)
  n_routable : int;
  mutable d_total : int;
  (* Failure memoization (not journaled; see the interface): free-epochs
     advance whenever resources are released in a column bucket, stamps
     record the relevant epoch maximum at a net's last failed attempt.
     Stamp -1 forces an attempt. *)
  h_epoch : int array array;  (* per channel, per column bucket *)
  v_epoch : int array;  (* per column bucket *)
  g_stamp : int array;  (* per net *)
  d_stamp : int array array;  (* per net, per channel *)
  snap : int array;  (* one sweep's attempt snapshot, reused by every sweep *)
}

let bucket_width = 8

let bucket col = col / bucket_width

let n_buckets cols = ((cols - 1) / bucket_width) + 1

let place t = t.place

let arch t = t.arch

let netlist t = t.nl

let g_count t = Q.length t.ug

let d_count t = t.d_total

let n_routable t = t.n_routable

let fully_routed t = t.d_total = 0

let needs_global t net = t.nstats.(net).needs_v

let global_route t net = t.nstats.(net).vr

let h_demands t net = t.nstats.(net).demands

let h_routes t net = t.nstats.(net).hroutes

let routable t net = t.routable.(net)

let in_ug_flag t net = t.nstats.(net).in_ug

let missing_channels t net = t.nstats.(net).missing

let d_flag t net = t.nstats.(net).d_flag

let is_fully_routed t net =
  let ns = t.nstats.(net) in
  t.routable.(net) && not ns.in_ug && ns.missing = [] && ns.demands <> []

(* Queue enumeration is the paper's explicit retry order (§3.3/§3.4):
   estimated length descending, net id descending on ties — never a
   hash-table artifact. *)
let u_g t = Q.to_list t.ug

let u_d t channel = Q.to_list t.ud.(channel)

let dirty_nets t = Spr_util.Bitset.to_list t.dirty

let clear_dirty t = Spr_util.Bitset.clear t.dirty

let mark_dirty t net = ignore (Spr_util.Bitset.add t.dirty net)

let hseg_owner t ~channel ~track ~seg = t.h_owner.(channel).(track).(seg)

let vseg_owner t ~col ~vtrack ~seg = t.v_owner.(col).(vtrack).(seg)

let rec run_free arr i shi = i > shi || (arr.(i) = -1 && run_free arr (i + 1) shi)

let hrun_free t ~channel ~track ~slo ~shi = run_free t.h_owner.(channel).(track) slo shi

let vrun_free t ~col ~vtrack ~slo ~shi = run_free t.v_owner.(col).(vtrack) slo shi

(* --- free-track maps --- *)

(* 62 tracks per word keeps every mask a non-negative OCaml int. *)
let word_bits = 62

let n_words tracks = (tracks + word_bits - 1) / word_bits

let test_bit cells ~width ~track ~at =
  cells.((at * width) + (track / word_bits)) land (1 lsl (track mod word_bits)) <> 0

(* Set or clear one track's bit in cells [lo, hi]. *)
let write_bits cells ~width ~track ~lo ~hi free =
  let w = track / word_bits and bit = 1 lsl (track mod word_bits) in
  if free then
    for at = lo to hi do
      let i = (at * width) + w in
      cells.(i) <- cells.(i) lor bit
    done
  else begin
    let keep = lnot bit in
    for at = lo to hi do
      let i = (at * width) + w in
      cells.(i) <- cells.(i) land keep
    done
  end

(* AND of one word over cells [lo, hi], stopping at the first zero. *)
let and_cells cells ~width ~word ~lo ~hi =
  let m = ref cells.((lo * width) + word) and at = ref (lo + 1) in
  while !m <> 0 && !at <= hi do
    m := !m land cells.((!at * width) + word);
    incr at
  done;
  !m

let hfree_and t ~channel ~word ~lo ~hi =
  and_cells t.hfree.(channel) ~width:t.hwords ~word ~lo ~hi

let vfree_and t ~col ~word ~clo ~chi =
  and_cells t.vfree.(col) ~width:t.vwords ~word ~lo:clo ~hi:chi

let lowest_bit_index m =
  let b = ref (m land -m) and i = ref 0 in
  if !b land 0xFFFFFFFF = 0 then begin
    b := !b lsr 32;
    i := 32
  end;
  if !b land 0xFFFF = 0 then begin
    b := !b lsr 16;
    i := !i + 16
  end;
  if !b land 0xFF = 0 then begin
    b := !b lsr 8;
    i := !i + 8
  end;
  if !b land 0xF = 0 then begin
    b := !b lsr 4;
    i := !i + 4
  end;
  if !b land 0x3 = 0 then begin
    b := !b lsr 2;
    i := !i + 2
  end;
  if !b land 0x1 = 0 then !i + 1 else !i

let hfree_bit t ~channel ~track ~col =
  test_bit t.hfree.(channel) ~width:t.hwords ~track ~at:col

let vfree_bit t ~col ~vtrack ~channel =
  test_bit t.vfree.(col) ~width:t.vwords ~track:vtrack ~at:channel

(* --- journaled primitive mutations --- *)

(* A run of segments changes owner as one: a claim finds it all free, a
   release all held by the one net. One write updates the owners and the
   free map over the run's cells, and one undo restores both. *)
let fill_hrun t ~channel ~track ~slo ~shi owner =
  Array.fill t.h_owner.(channel).(track) slo (shi - slo + 1) owner;
  let segs = t.arch.Spr_arch.Arch.hsegs.(channel).(track) in
  write_bits t.hfree.(channel) ~width:t.hwords ~track ~lo:segs.(slo).I.lo ~hi:segs.(shi).I.hi
    (owner = -1)

let fill_vrun t ~col ~vtrack ~slo ~shi owner =
  Array.fill t.v_owner.(col).(vtrack) slo (shi - slo + 1) owner;
  let segs = t.arch.Spr_arch.Arch.vsegs.(col).(vtrack) in
  write_bits t.vfree.(col) ~width:t.vwords ~track:vtrack ~lo:segs.(slo).I.lo
    ~hi:segs.(shi).I.hi (owner = -1)

let set_hrun t j ~channel ~track ~slo ~shi owner =
  let old = t.h_owner.(channel).(track).(slo) in
  fill_hrun t ~channel ~track ~slo ~shi owner;
  J.record j (fun () -> fill_hrun t ~channel ~track ~slo ~shi old)

let set_vrun t j ~col ~vtrack ~slo ~shi owner =
  let old = t.v_owner.(col).(vtrack).(slo) in
  fill_vrun t ~col ~vtrack ~slo ~shi owner;
  J.record j (fun () -> fill_vrun t ~col ~vtrack ~slo ~shi old)

let set_d_flag t j ns flag =
  if ns.d_flag <> flag then begin
    let old = ns.d_flag in
    ns.d_flag <- flag;
    t.d_total <- t.d_total + (if flag then 1 else -1);
    J.record j (fun () ->
        ns.d_flag <- old;
        t.d_total <- t.d_total + (if flag then -1 else 1))
  end

let refresh_d t j ns = set_d_flag t j ns (ns.in_ug || ns.missing <> [])

(* Enqueueing always (re)keys by the net's current estimated length, so
   even a net already queued whose pins just moved ends up at its proper
   retry rank. *)
let set_in_ug t j net flag =
  let ns = t.nstats.(net) in
  if flag then begin
    if not ns.in_ug then begin
      ns.in_ug <- true;
      J.record j (fun () -> ns.in_ug <- false)
    end;
    Q.add ~j t.ug net ~key:(Spr_layout.Placement.half_perimeter t.place net)
  end
  else if ns.in_ug then begin
    ns.in_ug <- false;
    J.record j (fun () -> ns.in_ug <- true);
    ignore (Q.remove ~j t.ug net)
  end

let set_vr j ns vr =
  let old = ns.vr in
  ns.vr <- vr;
  J.record j (fun () -> ns.vr <- old)

let set_needs_v j ns v =
  if ns.needs_v <> v then begin
    let old = ns.needs_v in
    ns.needs_v <- v;
    J.record j (fun () -> ns.needs_v <- old)
  end

let set_demands j ns demands =
  let old = ns.demands in
  ns.demands <- demands;
  J.record j (fun () -> ns.demands <- old)

let set_hroutes j ns hroutes =
  let old = ns.hroutes in
  ns.hroutes <- hroutes;
  J.record j (fun () -> ns.hroutes <- old)

(* [no_span] stands for "no demand in that channel", so the demand
   lookups the retry filters run on every queued net allocate no
   option. *)
let no_span = I.make 0 0

let rec span_in channel = function
  | [] -> no_span
  | (ch, span) :: rest -> if ch = channel then span else span_in channel rest

(* The queue updates of [set_missing], as recursions rather than closures
   over the lists; [oj] is the journal as the queues take it. *)
let rec dequeue_dropped t oj net ~missing = function
  | [] -> ()
  | ch :: rest ->
    if not (List.mem ch missing) then ignore (Q.remove ?j:oj t.ud.(ch) net);
    dequeue_dropped t oj net ~missing rest

(* Unconditional add: re-keys a still-queued channel whose demand span
   changed, so queue rank always reflects the current demand. *)
let rec enqueue_missing t oj net ~demands = function
  | [] -> ()
  | ch :: rest ->
    let span = span_in ch demands in
    Q.add ?j:oj t.ud.(ch) net ~key:(if span == no_span then 0 else I.length span);
    enqueue_missing t oj net ~demands rest

let set_missing t j net missing =
  let ns = t.nstats.(net) in
  let old = ns.missing in
  ns.missing <- missing;
  J.record j (fun () -> ns.missing <- old);
  let oj = Some j in
  dequeue_dropped t oj net ~missing old;
  enqueue_missing t oj net ~demands:ns.demands missing

(* --- demand computation from the current placement --- *)

let rec min_col_in ch acc = function
  | [] -> acc
  | (c, x) :: rest -> min_col_in ch (if c = ch && x < acc then x else acc) rest

let rec max_col_in ch acc = function
  | [] -> acc
  | (c, x) :: rest -> max_col_in ch (if c = ch && x > acc then x else acc) rest

(* Group the net's pins by channel into per-channel column spans,
   ascending by channel; when a spine column is chosen ([spine_col >= 0])
   every span must also reach the spine. *)
let channel_spans (g : Spr_layout.Placement.geom) ~spine_col =
  let spans = ref [] in
  for ch = g.g_ch_hi downto g.g_ch_lo do
    let lo = min_col_in ch max_int g.g_pins and hi = max_col_in ch min_int g.g_pins in
    if lo <= hi then begin
      let span =
        if spine_col < 0 then I.make lo hi else I.make (min lo spine_col) (max hi spine_col)
      in
      spans := (ch, span) :: !spans
    end
  done;
  !spans

(* --- segment claiming --- *)

let free_route_segments t j net =
  let ns = t.nstats.(net) in
  (match ns.vr with
  | None -> ()
  | Some vr ->
    let arr = t.v_owner.(vr.v_col).(vr.v_vtrack) in
    for s = vr.v_slo to vr.v_shi do
      assert (arr.(s) = net)
    done;
    set_vrun t j ~col:vr.v_col ~vtrack:vr.v_vtrack ~slo:vr.v_slo ~shi:vr.v_shi (-1);
    let b = bucket vr.v_col in
    t.v_epoch.(b) <- t.v_epoch.(b) + 1);
  List.iter
    (fun (_, hr) ->
      let ch = hr.h_channel in
      let arr = t.h_owner.(ch).(hr.h_track) in
      for s = hr.h_slo to hr.h_shi do
        assert (arr.(s) = net)
      done;
      set_hrun t j ~channel:ch ~track:hr.h_track ~slo:hr.h_slo ~shi:hr.h_shi (-1);
      let segs = t.arch.Spr_arch.Arch.hsegs.(ch).(hr.h_track) in
      let blo = bucket segs.(hr.h_slo).I.lo and bhi = bucket segs.(hr.h_shi).I.hi in
      for b = blo to bhi do
        t.h_epoch.(ch).(b) <- t.h_epoch.(ch).(b) + 1
      done)
    ns.hroutes

let max_epoch epochs blo bhi =
  let top = Array.length epochs - 1 in
  let blo = max 0 blo and bhi = min top bhi in
  let m = ref 0 in
  for b = blo to bhi do
    if epochs.(b) > !m then m := epochs.(b)
  done;
  !m

(* The spine search window: pin column bbox with a generous margin (an
   over-approximation of any router margin up to 4 is fine — too-wide
   windows only cost redundant attempts, never missed ones). *)
let global_window_epoch t net =
  let g = Spr_layout.Placement.geom t.place net in
  max_epoch t.v_epoch (bucket (g.g_col_lo - 16)) (bucket (g.g_col_hi + 16))

let global_attempt_pending t net =
  t.g_stamp.(net) = -1 || t.g_stamp.(net) < global_window_epoch t net

let note_global_failure t net = t.g_stamp.(net) <- global_window_epoch t net

let demand_span t net ~channel = span_in channel t.nstats.(net).demands

let has_demand t net ~channel = demand_span t net ~channel != no_span

let detail_attempt_pending t net ~channel =
  t.d_stamp.(net).(channel) = -1
  ||
  let span = demand_span t net ~channel in
  span != no_span
  && t.d_stamp.(net).(channel)
     < max_epoch t.h_epoch.(channel) (bucket span.I.lo) (bucket span.I.hi)

let note_detail_failure t net ~channel =
  let span = demand_span t net ~channel in
  if span != no_span then
    t.d_stamp.(net).(channel) <-
      max_epoch t.h_epoch.(channel) (bucket span.I.lo) (bucket span.I.hi)

(* --- attempt snapshots --- *)

let snapshot_buffer t = t.snap

let snapshot_ug t ~cap =
  let n = ref 0 and i = ref 0 and len = Q.length t.ug in
  while !n < cap && !i < len do
    let net = Q.nth t.ug !i in
    if global_attempt_pending t net then begin
      t.snap.(!n) <- net;
      incr n
    end;
    incr i
  done;
  !n

let snapshot_ud t ~channel ~cap =
  let q = t.ud.(channel) in
  let n = ref 0 and i = ref 0 and len = Q.length q in
  while !n < cap && !i < len do
    let net = Q.nth q !i in
    if detail_attempt_pending t net ~channel && has_demand t net ~channel then begin
      t.snap.(!n) <- net;
      incr n
    end;
    incr i
  done;
  !n

let reset_stamps t net =
  t.g_stamp.(net) <- -1;
  Array.fill t.d_stamp.(net) 0 (Array.length t.d_stamp.(net)) (-1)

let force_retry = reset_stamps

(* Memoization snapshot: stamps and epochs gate which queued nets the
   router retries, so a resumed run must carry them to stay on the
   interrupted run's exact trajectory. *)
type memo = {
  m_g_stamp : int array;
  m_d_stamp : int array array;
  m_h_epoch : int array array;
  m_v_epoch : int array;
}

let memo t =
  {
    m_g_stamp = Array.copy t.g_stamp;
    m_d_stamp = Array.map Array.copy t.d_stamp;
    m_h_epoch = Array.map Array.copy t.h_epoch;
    m_v_epoch = Array.copy t.v_epoch;
  }

let set_memo t m =
  let same_shape a b = Array.length a = Array.length b in
  let same_shape2 a b =
    same_shape a b && Array.for_all2 (fun x y -> same_shape x y) a b
  in
  if
    not
      (same_shape t.g_stamp m.m_g_stamp
      && same_shape2 t.d_stamp m.m_d_stamp
      && same_shape2 t.h_epoch m.m_h_epoch
      && same_shape t.v_epoch m.m_v_epoch)
  then Error "memoization state does not match the design/fabric shape"
  else begin
    Array.blit m.m_g_stamp 0 t.g_stamp 0 (Array.length t.g_stamp);
    Array.iteri (fun i row -> Array.blit row 0 t.d_stamp.(i) 0 (Array.length row)) m.m_d_stamp;
    Array.iteri (fun i row -> Array.blit row 0 t.h_epoch.(i) 0 (Array.length row)) m.m_h_epoch;
    Array.blit m.m_v_epoch 0 t.v_epoch 0 (Array.length t.v_epoch);
    Ok ()
  end

(* --- public mutations --- *)

let queue_detail_demands t j net demands =
  let ns = t.nstats.(net) in
  set_demands j ns demands;
  set_missing t j net (List.map fst demands);
  refresh_d t j ns

let satisfy_trivial_global t j net =
  let ns = t.nstats.(net) in
  mark_dirty t net;
  let g = Spr_layout.Placement.geom t.place net in
  set_needs_v j ns false;
  set_vr j ns None;
  set_in_ug t j net false;
  queue_detail_demands t j net (channel_spans g ~spine_col:(-1))

let rip_up t j net =
  if t.routable.(net) then begin
    let ns = t.nstats.(net) in
    mark_dirty t net;
    reset_stamps t net;
    free_route_segments t j net;
    set_vr j ns None;
    set_hroutes j ns [];
    set_demands j ns [];
    set_missing t j net [];
    let g = Spr_layout.Placement.geom t.place net in
    if g.g_ch_lo = g.g_ch_hi then satisfy_trivial_global t j net
    else begin
      set_needs_v j ns true;
      set_in_ug t j net true;
      refresh_d t j ns
    end
  end

let claim_global t j net vr =
  let ns = t.nstats.(net) in
  mark_dirty t net;
  assert ns.in_ug;
  assert (vrun_free t ~col:vr.v_col ~vtrack:vr.v_vtrack ~slo:vr.v_slo ~shi:vr.v_shi);
  set_vrun t j ~col:vr.v_col ~vtrack:vr.v_vtrack ~slo:vr.v_slo ~shi:vr.v_shi net;
  set_vr j ns (Some vr);
  set_in_ug t j net false;
  (* The new demands deserve fresh detail attempts regardless of
     previously recorded failures. *)
  Array.fill t.d_stamp.(net) 0 (Array.length t.d_stamp.(net)) (-1);
  queue_detail_demands t j net
    (channel_spans (Spr_layout.Placement.geom t.place net) ~spine_col:vr.v_col)

let claim_detail t j net hr =
  let ns = t.nstats.(net) in
  mark_dirty t net;
  assert (List.mem hr.h_channel ns.missing);
  assert (hrun_free t ~channel:hr.h_channel ~track:hr.h_track ~slo:hr.h_slo ~shi:hr.h_shi);
  set_hrun t j ~channel:hr.h_channel ~track:hr.h_track ~slo:hr.h_slo ~shi:hr.h_shi net;
  set_hroutes j ns ((hr.h_channel, hr) :: ns.hroutes);
  set_missing t j net (List.filter (fun ch -> ch <> hr.h_channel) ns.missing);
  refresh_d t j ns

(* --- construction --- *)

let create place =
  let arch = Spr_layout.Placement.arch place in
  let nl = Spr_layout.Placement.netlist place in
  let open Spr_arch in
  let h_owner =
    Array.init arch.Arch.n_channels (fun ch ->
        Array.init arch.Arch.tracks (fun tr ->
            Array.make (Array.length arch.Arch.hsegs.(ch).(tr)) (-1)))
  in
  let v_owner =
    Array.init arch.Arch.cols (fun col ->
        Array.init arch.Arch.vtracks (fun vt ->
            Array.make (Array.length arch.Arch.vsegs.(col).(vt)) (-1)))
  in
  (* Everything starts free: in every cell, word [w] has the low
     [min word_bits (tracks - w * word_bits)] bits set. *)
  let all_free ~cells ~tracks =
    let width = n_words tracks in
    Array.init (cells * width) (fun i ->
        lnot (-1 lsl min word_bits (tracks - (i mod width * word_bits))))
  in
  let hfree =
    Array.init arch.Arch.n_channels (fun _ ->
        all_free ~cells:arch.Arch.cols ~tracks:arch.Arch.tracks)
  in
  let vfree =
    Array.init arch.Arch.cols (fun _ ->
        all_free ~cells:arch.Arch.n_channels ~tracks:arch.Arch.vtracks)
  in
  let n_nets = Spr_netlist.Netlist.n_nets nl in
  let routable =
    Array.init n_nets (fun n ->
        Array.length (Spr_netlist.Netlist.net nl n).Spr_netlist.Netlist.sinks >= 1)
  in
  let nstats =
    Array.init n_nets (fun _ ->
        {
          needs_v = false;
          vr = None;
          demands = [];
          hroutes = [];
          in_ug = false;
          missing = [];
          d_flag = false;
        })
  in
  let t =
    {
      place;
      arch;
      nl;
      h_owner;
      v_owner;
      hwords = n_words arch.Arch.tracks;
      vwords = n_words arch.Arch.vtracks;
      hfree;
      vfree;
      nstats;
      ug = Q.create ~capacity:n_nets;
      ud = Array.init arch.Arch.n_channels (fun _ -> Q.create ~capacity:n_nets);
      dirty = Spr_util.Bitset.create ~capacity:n_nets;
      routable;
      n_routable = Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 routable;
      d_total = 0;
      h_epoch =
        Array.init arch.Arch.n_channels (fun _ -> Array.make (n_buckets arch.Arch.cols) 0);
      v_epoch = Array.make (n_buckets arch.Arch.cols) 0;
      g_stamp = Array.make n_nets (-1);
      d_stamp = Array.init n_nets (fun _ -> Array.make arch.Arch.n_channels (-1));
      snap = Array.make n_nets 0;
    }
  in
  let j = J.create () in
  for net = 0 to n_nets - 1 do
    rip_up t j net
  done;
  J.commit j;
  t

(* --- validation --- *)

(* Recompute one direction's free map from the owners and the
   segmentation, and report the first cell that differs. *)
let diff_free_map ~what ~cells ~owners ~segs ~width ~n_cells =
  let error = ref None in
  Array.iteri
    (fun outer per_track ->
      let expect = Array.make (n_cells * width) 0 in
      Array.iteri
        (fun track arr ->
          Array.iteri
            (fun s owner ->
              let seg = segs.(outer).(track).(s) in
              write_bits expect ~width ~track ~lo:seg.I.lo ~hi:seg.I.hi (owner = -1))
            arr)
        per_track;
      let i = ref 0 in
      while !error = None && !i < n_cells * width do
        if cells.(outer).(!i) <> expect.(!i) then
          error :=
            Some
              (Printf.sprintf "%s (%d,%d) word %d is %#x but the owners say %#x" what outer
                 (!i / width) (!i mod width) cells.(outer).(!i) expect.(!i));
        incr i
      done)
    owners;
  match !error with Some e -> Error e | None -> Ok ()

let check_free_maps t =
  let open Spr_arch in
  Result.bind
    (diff_free_map ~what:"hfree (channel, col)" ~cells:t.hfree ~owners:t.h_owner
       ~segs:t.arch.Arch.hsegs ~width:t.hwords ~n_cells:t.arch.Arch.cols)
    (fun () ->
      diff_free_map ~what:"vfree (col, channel)" ~cells:t.vfree ~owners:t.v_owner
        ~segs:t.arch.Arch.vsegs ~width:t.vwords ~n_cells:t.arch.Arch.n_channels)

let check t =
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  let open Spr_arch in
  (* 1. Every owned segment is listed by its owner's route. *)
  let listed_h = Hashtbl.create 64 in
  let listed_v = Hashtbl.create 64 in
  Array.iteri
    (fun net ns ->
      (match ns.vr with
      | None -> ()
      | Some vr ->
        for s = vr.v_slo to vr.v_shi do
          Hashtbl.replace listed_v (vr.v_col, vr.v_vtrack, s) net
        done);
      List.iter
        (fun (ch, hr) ->
          if ch <> hr.h_channel then fail "net %d: hroute channel key mismatch" net;
          for s = hr.h_slo to hr.h_shi do
            Hashtbl.replace listed_h (hr.h_channel, hr.h_track, s) net
          done)
        ns.hroutes)
    t.nstats;
  Array.iteri
    (fun ch per_track ->
      Array.iteri
        (fun tr arr ->
          Array.iteri
            (fun s owner ->
              let listed = Hashtbl.find_opt listed_h (ch, tr, s) in
              match owner, listed with
              | -1, None -> ()
              | -1, Some n -> fail "h seg (%d,%d,%d) listed by net %d but free" ch tr s n
              | o, None -> fail "h seg (%d,%d,%d) owned by %d but unlisted" ch tr s o
              | o, Some n -> if o <> n then fail "h seg (%d,%d,%d) owner %d vs listed %d" ch tr s o n)
            arr)
        per_track)
    t.h_owner;
  Array.iteri
    (fun col per_vt ->
      Array.iteri
        (fun vt arr ->
          Array.iteri
            (fun s owner ->
              let listed = Hashtbl.find_opt listed_v (col, vt, s) in
              match owner, listed with
              | -1, None -> ()
              | -1, Some n -> fail "v seg (%d,%d,%d) listed by net %d but free" col vt s n
              | o, None -> fail "v seg (%d,%d,%d) owned by %d but unlisted" col vt s o
              | o, Some n -> if o <> n then fail "v seg (%d,%d,%d) owner %d vs listed %d" col vt s o n)
            arr)
        per_vt)
    t.v_owner;
  (* 2. The free-track maps agree with the owners, cell by cell. *)
  (match check_free_maps t with Ok () -> () | Error e -> fail "%s" e);
  (* 3. Per-net structural invariants against the current placement. *)
  let d_expected = ref 0 in
  Array.iteri
    (fun net ns ->
      if not t.routable.(net) then begin
        if ns.in_ug || ns.missing <> [] || ns.vr <> None || ns.hroutes <> [] then
          fail "unroutable net %d has routing state" net
      end
      else begin
        let g = Spr_layout.Placement.geom t.place net in
        let chans = List.sort_uniq compare (List.map fst g.g_pins) in
        let needs_v = List.length chans > 1 in
        if ns.needs_v <> needs_v then fail "net %d: needs_v stale" net;
        if ns.in_ug <> (needs_v && ns.vr = None) then fail "net %d: in_ug inconsistent" net;
        if Q.mem t.ug net <> ns.in_ug then fail "net %d: ug queue mismatch" net;
        if
          ns.in_ug
          && Q.key t.ug net <> Spr_layout.Placement.half_perimeter t.place net
        then fail "net %d: ug retry key stale" net;
        if ns.in_ug && (ns.demands <> [] || ns.hroutes <> [] || ns.missing <> []) then
          fail "net %d: globally unrouted but has detail state" net;
        if not ns.in_ug then begin
          let spine_col = match ns.vr with Some vr -> vr.v_col | None -> -1 in
          let expect = channel_spans g ~spine_col in
          if expect <> List.sort compare ns.demands then fail "net %d: demands stale" net;
          (match ns.vr with
          | None -> if needs_v then fail "net %d: needs spine but has none" net
          | Some vr ->
            let lo = List.fold_left min max_int chans
            and hi = List.fold_left max min_int chans in
            if not (I.covers vr.v_span (I.make lo hi)) then
              fail "net %d: spine does not cover channel span" net;
            let segs = Arch.vsegments t.arch ~col:vr.v_col ~vtrack:vr.v_vtrack in
            let covered = I.make segs.(vr.v_slo).I.lo segs.(vr.v_shi).I.hi in
            if not (I.covers covered vr.v_span) then fail "net %d: vroute gap" net);
          (* Each demand is either routed or queued, never both. *)
          List.iter
            (fun (ch, span) ->
              let routed = List.mem_assoc ch ns.hroutes in
              let queued = List.mem ch ns.missing in
              if routed && queued then fail "net %d ch %d: routed and queued" net ch;
              if (not routed) && not queued then fail "net %d ch %d: demand dropped" net ch;
              if queued then begin
                if not (Q.mem t.ud.(ch) net) then
                  fail "net %d ch %d: missing from ud queue" net ch
                else if Q.key t.ud.(ch) net <> I.length span then
                  fail "net %d ch %d: ud retry key stale" net ch
              end;
              match List.assoc_opt ch ns.hroutes with
              | None -> ()
              | Some hr ->
                if hr.h_span <> span then fail "net %d ch %d: hroute span stale" net ch;
                let segs = Arch.hsegments t.arch ~channel:ch ~track:hr.h_track in
                let covered = I.make segs.(hr.h_slo).I.lo segs.(hr.h_shi).I.hi in
                if not (I.covers covered span) then fail "net %d ch %d: hroute gap" net ch)
            ns.demands;
          List.iter
            (fun (ch, _) ->
              if not (List.mem_assoc ch ns.demands) then
                fail "net %d: hroute in undemanded channel %d" net ch)
            ns.hroutes
        end;
        let d_flag = ns.in_ug || ns.missing <> [] in
        if ns.d_flag <> d_flag then fail "net %d: d_flag stale" net;
        if d_flag then incr d_expected
      end)
    t.nstats;
  if t.d_total <> !d_expected then fail "d_total %d but expected %d" t.d_total !d_expected;
  Array.iteri
    (fun ch q ->
      (match Q.check q with
      | Error e -> fail "ud queue ch %d: %s" ch e
      | Ok () -> ());
      Q.iter
        (fun net ->
          if not (List.mem ch t.nstats.(net).missing) then
            fail "ud queue ch %d lists net %d not missing there" ch net)
        q)
    t.ud;
  (match Q.check t.ug with
  | Error e -> fail "ug queue: %s" e
  | Ok () -> ());
  (match Spr_util.Bitset.check t.dirty with
  | Error e -> fail "dirty set: %s" e
  | Ok () -> ());
  match !error with Some e -> Error e | None -> Ok ()

module Debug = struct
  let flip_d_flag t net =
    let ns = t.nstats.(net) in
    ns.d_flag <- not ns.d_flag

  let flip_in_ug_flag t net =
    let ns = t.nstats.(net) in
    ns.in_ug <- not ns.in_ug

  let clear_missing t net = t.nstats.(net).missing <- []

  let set_hseg_owner t ~channel ~track ~seg owner =
    fill_hrun t ~channel ~track ~slo:seg ~shi:seg owner

  let set_vseg_owner t ~col ~vtrack ~seg owner = fill_vrun t ~col ~vtrack ~slo:seg ~shi:seg owner

  let flip_free_bit t cell ~track =
    let cells, width, at =
      match cell with
      | `H (channel, col) -> (t.hfree.(channel), t.hwords, col)
      | `V (col, channel) -> (t.vfree.(col), t.vwords, channel)
    in
    let i = (at * width) + (track / word_bits) in
    cells.(i) <- cells.(i) lxor (1 lsl (track mod word_bits))

  let bump_d_total t delta = t.d_total <- t.d_total + delta
end

let snapshot t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Array.iteri
    (fun ch per_track ->
      Array.iteri
        (fun tr arr ->
          Array.iteri (fun s o -> if o <> -1 then add "h %d %d %d = %d\n" ch tr s o) arr)
        per_track)
    t.h_owner;
  Array.iteri
    (fun col per_vt ->
      Array.iteri
        (fun vt arr ->
          Array.iteri (fun s o -> if o <> -1 then add "v %d %d %d = %d\n" col vt s o) arr)
        per_vt)
    t.v_owner;
  Array.iteri
    (fun net ns ->
      add "net %d: needs_v=%b in_ug=%b d_flag=%b\n" net ns.needs_v ns.in_ug ns.d_flag;
      (match ns.vr with
      | None -> ()
      | Some vr -> add "  vr col=%d vt=%d [%d..%d]\n" vr.v_col vr.v_vtrack vr.v_slo vr.v_shi);
      List.iter
        (fun (ch, span) -> add "  demand ch=%d %s\n" ch (I.to_string span))
        (List.sort compare ns.demands);
      (* Live list order, not sorted: the delay model builds each net's
         RC tree in this order, so two states whose lists differ only in
         order time differently and must not snapshot equal. *)
      List.iter
        (fun (ch, hr) ->
          add "  hr ch=%d tr=%d [%d..%d] %s\n" ch hr.h_track hr.h_slo hr.h_shi
            (I.to_string hr.h_span))
        ns.hroutes;
      List.iter (fun ch -> add "  missing ch=%d\n" ch) (List.sort compare ns.missing))
    t.nstats;
  add "g=%d d=%d\n" (g_count t) (d_count t);
  Buffer.contents buf
