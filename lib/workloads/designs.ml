(* The named benchmark designs.

   One synthetic instance per row of the paper's Tables II/III, keeping the
   paper's name and relative size but scaled down (the originals are
   proprietary IBM designs of up to 9.3M cells; see the substitution table
   in DESIGN.md).  The scale is cells-per-paper-kilocell and can be set via
   the FBP_BENCH_SCALE environment variable (default 2.0, i.e. Dagmar
   50k -> 1.5k cells (floored) ... Erik 9316k -> 18.6k cells). *)

type spec = {
  name : string;
  paper_kcells : int;  (* |C| in thousands, from Table II *)
  paper_rql_hpwl : float;  (* Table II RQL HPWL (scaled units) *)
  paper_fbp_hpwl_pct : float;  (* Table II "BonnPlace FBP" HPWL % *)
  paper_fbp_speedup : float;  (* Table II speedup factor *)
  seed : int;
  macro_fraction : float;
}

(* All 21 rows of Table II. *)
let table2_specs =
  [|
    { name = "dagmar"; paper_kcells = 50; paper_rql_hpwl = 0.95; paper_fbp_hpwl_pct = 83.2; paper_fbp_speedup = 3.3; seed = 101; macro_fraction = 0.05 };
    { name = "elisa"; paper_kcells = 67; paper_rql_hpwl = 2.60; paper_fbp_hpwl_pct = 109.8; paper_fbp_speedup = 4.4; seed = 102; macro_fraction = 0.06 };
    { name = "lucius"; paper_kcells = 77; paper_rql_hpwl = 3.42; paper_fbp_hpwl_pct = 109.2; paper_fbp_speedup = 1.9; seed = 103; macro_fraction = 0.04 };
    { name = "felix"; paper_kcells = 87; paper_rql_hpwl = 8.17; paper_fbp_hpwl_pct = 94.0; paper_fbp_speedup = 5.2; seed = 104; macro_fraction = 0.08 };
    { name = "paula"; paper_kcells = 129; paper_rql_hpwl = 3.14; paper_fbp_hpwl_pct = 102.3; paper_fbp_speedup = 3.9; seed = 105; macro_fraction = 0.05 };
    { name = "rabe"; paper_kcells = 175; paper_rql_hpwl = 12.42; paper_fbp_hpwl_pct = 99.6; paper_fbp_speedup = 4.7; seed = 106; macro_fraction = 0.07 };
    { name = "julia"; paper_kcells = 190; paper_rql_hpwl = 10.65; paper_fbp_hpwl_pct = 101.8; paper_fbp_speedup = 3.9; seed = 107; macro_fraction = 0.05 };
    { name = "max"; paper_kcells = 328; paper_rql_hpwl = 17.22; paper_fbp_hpwl_pct = 104.5; paper_fbp_speedup = 2.8; seed = 108; macro_fraction = 0.06 };
    { name = "roger"; paper_kcells = 456; paper_rql_hpwl = 27.42; paper_fbp_hpwl_pct = 101.2; paper_fbp_speedup = 2.1; seed = 109; macro_fraction = 0.05 };
    { name = "ashraf"; paper_kcells = 867; paper_rql_hpwl = 61.05; paper_fbp_hpwl_pct = 100.8; paper_fbp_speedup = 5.0; seed = 110; macro_fraction = 0.08 };
    { name = "fedor"; paper_kcells = 1052; paper_rql_hpwl = 45.84; paper_fbp_hpwl_pct = 101.8; paper_fbp_speedup = 4.9; seed = 111; macro_fraction = 0.05 };
    { name = "erhard"; paper_kcells = 2578; paper_rql_hpwl = 463.76; paper_fbp_hpwl_pct = 89.2; paper_fbp_speedup = 4.4; seed = 112; macro_fraction = 0.06 };
    { name = "arijan"; paper_kcells = 3753; paper_rql_hpwl = 485.04; paper_fbp_hpwl_pct = 99.8; paper_fbp_speedup = 3.5; seed = 113; macro_fraction = 0.05 };
    { name = "philipp"; paper_kcells = 3946; paper_rql_hpwl = 358.91; paper_fbp_hpwl_pct = 95.4; paper_fbp_speedup = 4.8; seed = 114; macro_fraction = 0.04 };
    { name = "tomoku"; paper_kcells = 5296; paper_rql_hpwl = 356.44; paper_fbp_hpwl_pct = 99.4; paper_fbp_speedup = 6.7; seed = 115; macro_fraction = 0.06 };
    { name = "trips"; paper_kcells = 5747; paper_rql_hpwl = 616.05; paper_fbp_hpwl_pct = 95.7; paper_fbp_speedup = 4.6; seed = 116; macro_fraction = 0.05 };
    { name = "valentin"; paper_kcells = 5838; paper_rql_hpwl = 671.49; paper_fbp_hpwl_pct = 90.9; paper_fbp_speedup = 5.1; seed = 117; macro_fraction = 0.07 };
    { name = "andre"; paper_kcells = 6794; paper_rql_hpwl = 437.01; paper_fbp_hpwl_pct = 102.7; paper_fbp_speedup = 5.7; seed = 118; macro_fraction = 0.05 };
    { name = "ludwig"; paper_kcells = 7500; paper_rql_hpwl = 598.40; paper_fbp_hpwl_pct = 100.8; paper_fbp_speedup = 6.2; seed = 119; macro_fraction = 0.06 };
    { name = "leyla"; paper_kcells = 8472; paper_rql_hpwl = 711.90; paper_fbp_hpwl_pct = 100.9; paper_fbp_speedup = 6.4; seed = 120; macro_fraction = 0.05 };
    { name = "erik"; paper_kcells = 9316; paper_rql_hpwl = 559.34; paper_fbp_hpwl_pct = 97.9; paper_fbp_speedup = 6.3; seed = 121; macro_fraction = 0.06 };
  |]

let find_spec name =
  Array.to_list table2_specs |> List.find_opt (fun s -> s.name = name)

(* Cells per paper kilocell.  At the default 2.0, erik becomes 18.6k
   cells; FBP_BENCH_SCALE overrides (e.g. 1.0 for a very quick pass,
   10.0 for erik at 93k).  A value that is not a finite positive number is
   a typed [Invalid_input], never a silent default. *)
let scale () =
  match Sys.getenv_opt "FBP_BENCH_SCALE" with
  | None -> 2.0
  | Some s -> (
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v > 0.0 -> v
    | Some _ | None ->
      Fbp_resilience.Fbp_error.raise_error
        (Invalid_input
           (Printf.sprintf "FBP_BENCH_SCALE=%S: want a finite positive number" s)))

(* Sizes are floored at 1500 cells: below that the multilevel structure the
   comparison probes does not exist (the paper's smallest design is 50k). *)
let n_cells_of_spec ?scale:sc (s : spec) =
  let sc = match sc with Some v -> v | None -> scale () in
  max 1500 (int_of_float (float_of_int s.paper_kcells *. sc))

let instantiate ?scale (s : spec) =
  let n = n_cells_of_spec ?scale s in
  Fbp_netlist.Generator.generate
    {
      Fbp_netlist.Generator.default_params with
      name = s.name;
      n_cells = n;
      seed = s.seed;
      macro_fraction = s.macro_fraction;
      n_macros = (if s.macro_fraction > 0.0 then 2 + (s.seed mod 3) else 0);
      target_density = 0.97;  (* the paper's setting for Tables II-VI *)
    }

(* The subset used for fast default runs (bench --quick, examples). *)
let quick_names = [ "dagmar"; "rabe"; "max" ]
