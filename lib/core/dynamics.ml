type sample = {
  dyn_temp_index : int;
  dyn_temperature : float;
  pct_cells_perturbed : float;
  pct_nets_globally_unrouted : float;
  pct_nets_unrouted : float;
  acceptance : float;
  cost : float;
  critical_delay : float;
  phase_seconds : float array;  (* indexed by Profile.phase_index; [||] when unprofiled *)
  phase_words : float array;  (* minor words per move, same indexing and absence rule *)
}

type t = {
  n_cells : int;
  perturbed : bool array;
  mutable n_perturbed : int;
  mutable acc : sample list;  (* reversed *)
}

let create ~n_cells = { n_cells; perturbed = Array.make n_cells false; n_perturbed = 0; acc = [] }

let note_accepted_cells t cells =
  List.iter
    (fun c ->
      if not t.perturbed.(c) then begin
        t.perturbed.(c) <- true;
        t.n_perturbed <- t.n_perturbed + 1
      end)
    cells

let flush ?(phase_seconds = [||]) ?(phase_words = [||]) t ~temp_index ~temperature ~g_frac
    ~d_frac ~acceptance ~cost ~critical_delay =
  let sample =
    {
      dyn_temp_index = temp_index;
      dyn_temperature = temperature;
      pct_cells_perturbed = 100.0 *. float_of_int t.n_perturbed /. float_of_int t.n_cells;
      pct_nets_globally_unrouted = 100.0 *. g_frac;
      pct_nets_unrouted = 100.0 *. d_frac;
      acceptance;
      cost;
      critical_delay;
      phase_seconds;
      phase_words;
    }
  in
  t.acc <- sample :: t.acc;
  Array.fill t.perturbed 0 (Array.length t.perturbed) false;
  t.n_perturbed <- 0

let samples t = List.rev t.acc

let last_sample t = match t.acc with [] -> None | s :: _ -> Some s

let perturbed_flags t = Array.copy t.perturbed

let restore ~n_cells ~flags ~samples =
  if Array.length flags <> n_cells then invalid_arg "Dynamics.restore: flag count mismatch";
  let t = create ~n_cells in
  Array.blit flags 0 t.perturbed 0 n_cells;
  t.n_perturbed <- Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 flags;
  t.acc <- List.rev samples;
  t

(* A sample and a report dynamics row carry the same data; the report
   row names its phase columns instead of relying on Profile's index. *)
let named_phases values =
  if Array.length values <> Profile.n_phases then []
  else List.map (fun p -> (Profile.phase_name p, values.(Profile.phase_index p))) Profile.phases

let indexed_phases named =
  if List.length named <> Profile.n_phases then [||] else Array.of_list (List.map snd named)

let to_row s =
  {
    Spr_obs.Report.dr_temp_index = s.dyn_temp_index;
    dr_temperature = s.dyn_temperature;
    dr_pct_cells = s.pct_cells_perturbed;
    dr_pct_g_unrouted = s.pct_nets_globally_unrouted;
    dr_pct_unrouted = s.pct_nets_unrouted;
    dr_acceptance = s.acceptance;
    dr_cost = s.cost;
    dr_delay_ns = s.critical_delay;
    dr_phase_seconds = named_phases s.phase_seconds;
    dr_phase_words = named_phases s.phase_words;
  }

let of_row (r : Spr_obs.Report.dyn_row) =
  {
    dyn_temp_index = r.Spr_obs.Report.dr_temp_index;
    dyn_temperature = r.dr_temperature;
    pct_cells_perturbed = r.dr_pct_cells;
    pct_nets_globally_unrouted = r.dr_pct_g_unrouted;
    pct_nets_unrouted = r.dr_pct_unrouted;
    acceptance = r.dr_acceptance;
    cost = r.dr_cost;
    critical_delay = r.dr_delay_ns;
    phase_seconds = indexed_phases r.dr_phase_seconds;
    phase_words = indexed_phases r.dr_phase_words;
  }

let rows t = List.map to_row (samples t)

let pp_series ppf samples = Spr_obs.Report.render_dynamics ppf (List.map to_row samples)

let pp_phase_series ppf samples =
  Spr_obs.Report.render_phase_series ppf
    ~phase_names:(List.map Profile.phase_name Profile.phases)
    (List.map to_row samples)
