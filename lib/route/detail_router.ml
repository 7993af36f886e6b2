module I = Spr_util.Interval

let run_cost ~antifuse_weight segs ~slo ~shi ~lo ~hi =
  let covered = segs.(shi).I.hi - segs.(slo).I.lo + 1 in
  let wastage = covered - (hi - lo + 1) in
  float_of_int wastage +. (antifuse_weight *. float_of_int (shi - slo + 1))

(* The cheapest track whose free run covers columns [lo, hi], or -1.
   The free-track map gives the tracks whose run is free; only those are
   costed, in ascending order, and a later track must be strictly
   cheaper to win a tie. Allocates nothing. *)
let best_track_index ~antifuse_weight st ~channel ~lo ~hi =
  let arch = Route_state.arch st in
  let best = ref (-1) and best_cost = ref 0.0 in
  if lo >= 0 && hi < arch.Spr_arch.Arch.cols then
    for word = 0 to ((arch.Spr_arch.Arch.tracks - 1) / Route_state.word_bits) do
      let free = ref (Route_state.hfree_and st ~channel ~word ~lo ~hi) in
      while !free <> 0 do
        let track = (word * Route_state.word_bits) + Route_state.lowest_bit_index !free in
        let segs = Spr_arch.Arch.hsegments arch ~channel ~track in
        let slo = Spr_arch.Arch.cover_start segs ~lo ~hi in
        let shi = Spr_arch.Arch.cover_end segs slo ~hi in
        let cost = run_cost ~antifuse_weight segs ~slo ~shi ~lo ~hi in
        if !best < 0 || cost < !best_cost then begin
          best := track;
          best_cost := cost
        end;
        free := !free land (!free - 1)
      done
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
