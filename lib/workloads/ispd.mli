(** ISPD-2006-style instances and contest scoring (Table VII). *)

open Fbp_netlist

type spec = {
  name : string;
  paper_kcells : int;
  target_density : float;
  seed : int;
  macro_fraction : float;
  paper_kw2 : float * float * float;  (** Kraftwerk2 H, H+D, H+D+C *)
  paper_fbp_hpwl : float;
  paper_fbp_dens_pct : float;
  paper_fbp_cpu_pct : float;
}

(** ad5-s, nb1-s … nb7-s. *)
val specs : spec array

(** The spec's design at {!Designs.scale} (raises like it on a bad
    [FBP_BENCH_SCALE]). *)
val instantiate : spec -> Design.t

(** Mean relative overflow of the worst 10% of 10-row bins. *)
val density_penalty : Design.t -> Placement.t -> float

(** ±4% per factor of two of runtime vs the reference, truncated at ±10%
    (negative = bonus). *)
val cpu_factor : reference:float -> time:float -> float

type score = {
  hpwl : float;
  dens_pct : float;
  cpu_pct : float;
  h_d : float;
  h_d_c : float;
}

val score : Design.t -> Placement.t -> time:float -> reference_time:float -> score
