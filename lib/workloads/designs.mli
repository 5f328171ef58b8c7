(** Named benchmark designs: one synthetic instance per row of the paper's
    Table II, scaled via FBP_BENCH_SCALE (cells per paper-kilocell,
    default 2.0, floored at 1500 cells). *)

type spec = {
  name : string;
  paper_kcells : int;
  paper_rql_hpwl : float;
  paper_fbp_hpwl_pct : float;
  paper_fbp_speedup : float;
  seed : int;
  macro_fraction : float;
}

(** All 21 rows of Table II. *)
val table2_specs : spec array

val find_spec : string -> spec option

(** Current scale (cells per paper-kilocell): [FBP_BENCH_SCALE], default
    2.0.  Raises [Fbp_error.Error (Invalid_input _)] when the variable is
    not a finite positive number. *)
val scale : unit -> float

(** Cells of a spec's design at [scale] (default {!scale}[ ()]). *)
val n_cells_of_spec : ?scale:float -> spec -> int
val instantiate : ?scale:float -> spec -> Fbp_netlist.Design.t

(** Subset for fast runs. *)
val quick_names : string list
