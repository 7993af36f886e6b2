module I = Spr_util.Interval

let run_cost ~antifuse_weight segs ~slo ~shi ~lo ~hi =
  let covered = segs.(shi).I.hi - segs.(slo).I.lo + 1 in
  let wastage = covered - (hi - lo + 1) in
  float_of_int wastage +. (antifuse_weight *. float_of_int (shi - slo + 1))

(* The cheapest track whose free run covers columns [lo, hi], or -1.
   Ties go to the earlier track (a later track must be strictly
   cheaper). Scans with plain loops, so it allocates nothing. *)
let best_track_index ~antifuse_weight st ~channel ~lo ~hi =
  let arch = Route_state.arch st in
  let best = ref (-1) and best_cost = ref 0.0 in
  for track = 0 to arch.Spr_arch.Arch.tracks - 1 do
    let segs = Spr_arch.Arch.hsegments arch ~channel ~track in
    let slo = Spr_arch.Arch.cover_start segs ~lo ~hi in
    if slo >= 0 then begin
      let shi = Spr_arch.Arch.cover_end segs slo ~hi in
      if Route_state.hrun_free st ~channel ~track ~slo ~shi then begin
        let cost = run_cost ~antifuse_weight segs ~slo ~shi ~lo ~hi in
        if !best < 0 || cost < !best_cost then begin
          best := track;
          best_cost := cost
        end
      end
    end
  done;
  !best

let best_track ?(antifuse_weight = 3.0) st ~channel ~span =
  let lo = span.I.lo and hi = span.I.hi in
  let track = best_track_index ~antifuse_weight st ~channel ~lo ~hi in
  if track < 0 then None
  else begin
    let segs = Spr_arch.Arch.hsegments (Route_state.arch st) ~channel ~track in
    let slo = Spr_arch.Arch.cover_start segs ~lo ~hi in
    let shi = Spr_arch.Arch.cover_end segs slo ~hi in
    Some (track, slo, shi, run_cost ~antifuse_weight segs ~slo ~shi ~lo ~hi)
  end

let attempt ?(antifuse_weight = 3.0) st j ~net ~channel =
  Route_state.has_demand st net ~channel
  &&
  let span = Route_state.demand_span st net ~channel in
  let lo = span.I.lo and hi = span.I.hi in
  let track = best_track_index ~antifuse_weight st ~channel ~lo ~hi in
  track >= 0
  &&
  let segs = Spr_arch.Arch.hsegments (Route_state.arch st) ~channel ~track in
  let slo = Spr_arch.Arch.cover_start segs ~lo ~hi in
  Route_state.claim_detail st j net
    {
      Route_state.h_channel = channel;
      h_track = track;
      h_slo = slo;
      h_shi = Spr_arch.Arch.cover_end segs slo ~hi;
      h_span = span;
    };
  true
