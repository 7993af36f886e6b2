module I = Spr_util.Interval

(* Default bound on spine columns probed per attempt; electrically any
   column inside the window serves, so a bounded nearest-the-center scan
   keeps per-move cost flat on wide nets. Desperate callers (the
   sequential improvement loop) raise it to the full die width. *)
let default_max_candidates = 24

(* First vertical track at column [x] whose free segments cover channels
   [clo, chi], or -1: the lowest vtrack free in every cell of the span,
   taken from the first word of the free-track map that has one. *)
let rec first_free_vtrack st ~x ~clo ~chi ~words word =
  if word >= words then -1
  else begin
    let free = Route_state.vfree_and st ~col:x ~word ~clo ~chi in
    if free <> 0 then (word * Route_state.word_bits) + Route_state.lowest_bit_index free
    else first_free_vtrack st ~x ~clo ~chi ~words (word + 1)
  end

let free_vtrack st ~x ~clo ~chi =
  let arch = Route_state.arch st in
  if clo < 0 || chi >= arch.Spr_arch.Arch.n_channels then -1
  else
    first_free_vtrack st ~x ~clo ~chi
      ~words:(((arch.Spr_arch.Arch.vtracks - 1) / Route_state.word_bits) + 1)
      0

(* Candidate spine columns by distance from the window center, ties
   toward the left: center, center-1, center+1, center-2, ... clipped to
   the window [lo, hi], at most [max_candidates] probed. Returns the
   first feasible (column, vtrack) encoded as [col * vtracks + vtrack],
   or -1. *)
let rec scan st arch ~clo ~chi ~lo ~hi ~center ~max_candidates dist tried =
  let left = center - dist and right = center + dist in
  let left_in = left >= lo && left <= hi and right_in = right >= lo && right <= hi in
  if tried >= max_candidates || ((not left_in) && not right_in) then -1
  else begin
    let vt = if left_in then free_vtrack st ~x:left ~clo ~chi else -1 in
    if vt >= 0 then (left * arch.Spr_arch.Arch.vtracks) + vt
    else begin
      let tried = tried + if left_in then 1 else 0 in
      let probe_right = dist > 0 && right_in in
      if tried >= max_candidates then -1
      else begin
        let vt = if probe_right then free_vtrack st ~x:right ~clo ~chi else -1 in
        if vt >= 0 then (right * arch.Spr_arch.Arch.vtracks) + vt
        else
          scan st arch ~clo ~chi ~lo ~hi ~center ~max_candidates (dist + 1)
            (tried + if probe_right then 1 else 0)
      end
    end
  end

(* The pin bounding box comes from the placement's memoized geometry and
   the candidate walk is a loop, so a failed attempt allocates nothing. *)
let attempt ?(margin = 2) ?(max_candidates = default_max_candidates) st j net =
  let arch = Route_state.arch st in
  let g = Spr_layout.Placement.geom (Route_state.place st) net in
  match g.g_pins with
  | [] | [ _ ] -> false
  | _ :: _ :: _ ->
    let clo = g.g_ch_lo and chi = g.g_ch_hi in
    let lo = max 0 (g.g_col_lo - margin)
    and hi = min (arch.Spr_arch.Arch.cols - 1) (g.g_col_hi + margin) in
    let found = scan st arch ~clo ~chi ~lo ~hi ~center:((lo + hi) / 2) ~max_candidates 0 0 in
    if found < 0 then false
    else begin
      let x = found / arch.Spr_arch.Arch.vtracks and vt = found mod arch.Spr_arch.Arch.vtracks in
      let segs = Spr_arch.Arch.vsegments arch ~col:x ~vtrack:vt in
      let slo = Spr_arch.Arch.cover_start segs ~lo:clo ~hi:chi in
      Route_state.claim_global st j net
        {
          Route_state.v_col = x;
          v_vtrack = vt;
          v_slo = slo;
          v_shi = Spr_arch.Arch.cover_end segs slo ~hi:chi;
          v_span = I.make clo chi;
        };
      true
    end
