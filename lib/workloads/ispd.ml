(* ISPD-2006-style benchmark instances and contest scoring (Table VII).

   The contest netlists are not redistributable; one synthetic mixed-size
   instance stands in per contest circuit (`ad5-s` for adaptec5, `nb1-s` ..
   `nb7-s` for newblue1-7), with the contest's per-circuit target densities.
   The scoring reimplements the published formulas:

   - density penalty (D): the mean relative overflow of the worst 10% of
     bins (bins at 10 rows per side), as a percentage added to HPWL:
       H+D = HPWL * (1 + penalty);
   - CPU factor (C): ±4% per factor of two of runtime versus the reference
     tool, truncated at ±10% exactly as the contest (and the paper's Table
     VII footnote about the -10% truncation) specifies:
       H+D+C = (H+D) * (1 + C). *)

open Fbp_netlist

type spec = {
  name : string;
  paper_kcells : int;
  target_density : float;
  seed : int;
  macro_fraction : float;
  (* Table VII reference values for Kraftwerk2: HPWL, H+D, H+D+C *)
  paper_kw2 : float * float * float;
  (* Table VII values for BonnPlace FBP: HPWL, DENS%, CPU%, ratios *)
  paper_fbp_hpwl : float;
  paper_fbp_dens_pct : float;
  paper_fbp_cpu_pct : float;
}

let specs =
  [|
    { name = "ad5-s"; paper_kcells = 843; target_density = 0.50; seed = 201; macro_fraction = 0.12;
      paper_kw2 = (433.84, 449.48, 407.46); paper_fbp_hpwl = 430.43; paper_fbp_dens_pct = 1.81; paper_fbp_cpu_pct = -9.52 };
    { name = "nb1-s"; paper_kcells = 330; target_density = 0.80; seed = 202; macro_fraction = 0.20;
      paper_kw2 = (65.92, 66.22, 60.67); paper_fbp_hpwl = 69.05; paper_fbp_dens_pct = 2.04; paper_fbp_cpu_pct = -10.0 };
    { name = "nb2-s"; paper_kcells = 441; target_density = 0.90; seed = 203; macro_fraction = 0.15;
      paper_kw2 = (203.91, 206.53, 185.88); paper_fbp_hpwl = 200.77; paper_fbp_dens_pct = 1.92; paper_fbp_cpu_pct = -8.16 };
    { name = "nb3-s"; paper_kcells = 494; target_density = 0.80; seed = 204; macro_fraction = 0.10;
      paper_kw2 = (278.51, 279.57, 251.62); paper_fbp_hpwl = 273.48; paper_fbp_dens_pct = 1.15; paper_fbp_cpu_pct = -8.25 };
    { name = "nb4-s"; paper_kcells = 646; target_density = 0.50; seed = 205; macro_fraction = 0.10;
      paper_kw2 = (304.24, 309.44, 282.74); paper_fbp_hpwl = 313.72; paper_fbp_dens_pct = 2.27; paper_fbp_cpu_pct = -10.0 };
    { name = "nb5-s"; paper_kcells = 1233; target_density = 0.50; seed = 206; macro_fraction = 0.08;
      paper_kw2 = (548.38, 563.15, 509.65); paper_fbp_hpwl = 545.82; paper_fbp_dens_pct = 1.31; paper_fbp_cpu_pct = -10.0 };
    { name = "nb6-s"; paper_kcells = 1255; target_density = 0.80; seed = 207; macro_fraction = 0.08;
      paper_kw2 = (528.59, 537.59, 484.42); paper_fbp_hpwl = 520.19; paper_fbp_dens_pct = 1.42; paper_fbp_cpu_pct = -9.42 };
    { name = "nb7-s"; paper_kcells = 2507; target_density = 0.80; seed = 208; macro_fraction = 0.10;
      paper_kw2 = (1126.58, 1162.12, 1056.84); paper_fbp_hpwl = 1075.98; paper_fbp_dens_pct = 0.97; paper_fbp_cpu_pct = -8.35 };
  |]

(* ISPD instances are scaled like the Table II designs. *)
let instantiate (s : spec) =
  let n = max 1500 (int_of_float (float_of_int s.paper_kcells *. Designs.scale ())) in
  Generator.generate
    {
      Generator.default_params with
      name = s.name;
      n_cells = n;
      seed = s.seed;
      macro_fraction = s.macro_fraction;
      n_macros = 3 + (s.seed mod 4);
      target_density = s.target_density;
      (* the contest designs are whitespace-rich *)
      utilization = 0.5;
    }

(* Density penalty: mean relative overflow of the worst 10% of bins. *)
let density_penalty (design : Design.t) pos =
  let chip = design.Design.chip in
  let rows10 = 10.0 *. design.Design.row_height in
  let nx = max 4 (int_of_float (Fbp_geometry.Rect.width chip /. rows10)) in
  let ny = max 4 (int_of_float (Fbp_geometry.Rect.height chip /. rows10)) in
  let usage, cap = Fbp_core.Density.bin_utilization design pos ~nx ~ny in
  let overflow =
    Array.mapi
      (fun i u ->
        let allowed = design.Design.target_density *. cap.(i) in
        if allowed > 1e-9 then Float.max 0.0 ((u -. allowed) /. allowed) else 0.0)
      usage
  in
  Array.sort (fun a b -> Float.compare b a) overflow;
  let top = max 1 (Array.length overflow / 10) in
  let acc = ref 0.0 in
  for i = 0 to top - 1 do
    acc := !acc +. overflow.(i)
  done;
  !acc /. float_of_int top

(* CPU factor versus a reference runtime: ±4% per factor of two, truncated
   at ±10% (negative = bonus for being faster). *)
let cpu_factor ~reference ~time =
  if reference <= 0.0 || time <= 0.0 then 0.0
  else begin
    let f = 0.04 *. (log (time /. reference) /. log 2.0) in
    Float.max (-0.10) (Float.min 0.10 f)
  end

type score = {
  hpwl : float;
  dens_pct : float;  (* density penalty in percent *)
  cpu_pct : float;  (* CPU factor in percent *)
  h_d : float;  (* HPWL with density penalty *)
  h_d_c : float;  (* with CPU factor *)
}

let score (design : Design.t) pos ~time ~reference_time =
  let h = Hpwl.total design.Design.netlist pos in
  let d = density_penalty design pos in
  let c = cpu_factor ~reference:reference_time ~time in
  {
    hpwl = h;
    dens_pct = 100.0 *. d;
    cpu_pct = 100.0 *. c;
    h_d = h *. (1.0 +. d);
    h_d_c = h *. (1.0 +. d) *. (1.0 +. c);
  }
