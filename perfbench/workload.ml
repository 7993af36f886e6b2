(* The four workloads. Each is one closed-loop job at a time on one
   process; its inputs are a pure function of the benchmark seed, which
   drives both the annealer and (for gen2k_early) the netlist generator.
   Why each one exists is in README.md next to this file. *)

module Tool = Spr_core.Tool
module C = Spr_core.Tool.Config

type design = {
  nl : Spr_netlist.Netlist.t;
  arch : Spr_arch.Arch.t;
  config : Tool.config;
}

type t = {
  name : string;
  min_cores : int;  (** Refuse to run on fewer cores than this. *)
  nominal_s : float;
      (** Seconds one audited instance takes on a 2-core x86 box; sizes
          how many instances a run of a given length measures. *)
  setup : seed:int -> design;
}

(* The experiments' quick-effort schedule, copied here so that a later
   change to the effort profiles does not silently change the
   workloads. *)
let quick_anneal ~n =
  let base = Spr_anneal.Engine.default_config ~n in
  { base with Spr_anneal.Engine.moves_per_temp = max 300 (5 * n); max_temperatures = 90 }

(* The quick schedule with the adaptive stop off and the quench kept: a
   fixed 60 cooling temperatures. With the adaptive stop, schedule length
   alone moved s1's wall time by 30% from seed to seed. *)
let fixed_length a = { a with Spr_anneal.Engine.stop_patience = max_int; max_temperatures = 60 }

let design ?(schedule = Fun.id) ~tracks ~seed nl edit =
  let n = Spr_netlist.Netlist.n_cells nl in
  let config =
    C.(default |> with_seed seed |> with_anneal (schedule (quick_anneal ~n)) |> edit)
  in
  { nl; arch = Spr_arch.Arch.size_for ~tracks nl; config }

let circuit ?schedule name ~tracks edit ~seed =
  design ?schedule ~tracks ~seed (Spr_netlist.Circuits.make_by_name name) edit

let generated ~cells ~tracks edit ~seed =
  let nl =
    Spr_netlist.Generator.generate ~name:(Printf.sprintf "gen%d" cells)
      (Spr_netlist.Generator.default ~n_cells:cells)
      ~seed
  in
  design ~tracks ~seed nl edit

let all =
  [
    {
      name = "s1_cold";
      nominal_s = 8.3;
      min_cores = 1;
      setup = circuit "s1" ~schedule:fixed_length ~tracks:28 Fun.id;
    };
    {
      name = "gen2k_early";
      nominal_s = 6.0;
      min_cores = 1;
      setup = generated ~cells:2000 ~tracks:28 (C.with_max_moves 2000);
    };
    {
      name = "big529_k2";
      nominal_s = 8.0;
      min_cores = 2;
      setup =
        circuit "big529" ~tracks:38
          (fun c ->
            C.with_max_moves 7000 c
            |> C.with_replicas ~exchange:(Spr_anneal.Portfolio.Best_exchange 2) 2);
    };
    {
      name = "s1_seeded";
      nominal_s = 3.2;
      min_cores = 1;
      setup = circuit "s1" ~tracks:28 (C.with_flow_preset "ap+sa");
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
