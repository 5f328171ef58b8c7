(** Movebound scenario generation for Tables III–VI: voltage islands,
    flattened hierarchies (F), and overlapping/nested bounds (O), with
    per-scenario coverage and density caps. *)

type shape =
  | Islands of int
  | Flatten of int
  | Overlapping of int

type scenario = {
  design : string;  (** Designs spec name *)
  shape : shape;
  coverage : float;  (** fraction of cells bound *)
  max_density : float;  (** per-movebound density cap *)
  kind : Fbp_movebound.Movebound.kind;
}

(** The 8 rows of Table III (inclusive). *)
val table3_scenarios : scenario list

(** The 5 Table V designs (exclusive variants). *)
val table5_designs : string list

val shape_count : shape -> int

(** A scenario's Table V form: its bounds as that many disjoint islands,
    exclusive. *)
val exclusive_variant : scenario -> scenario
val is_overlapping : shape -> bool

(** Attach a scenario to a design (mutates the netlist's movebound column);
    deterministic per (design, scenario). *)
val attach : scenario -> Fbp_netlist.Design.t -> Fbp_movebound.Instance.t

type stats = {
  n_movebounds : int;
  n_cells : int;
  pct_bound : float;
  max_mb_density : float;
  overlapping : bool;
  flattened : bool;
}

(** Table III statistics of an attached instance. *)
val stats_of : scenario -> Fbp_movebound.Instance.t -> stats

(** Like {!attach}, but backs off the coverage until the row-aware
    Theorem-2 feasibility check passes (needed for exclusive scenarios).
    Returns the coverage actually used. *)
val attach_feasible : scenario -> Fbp_netlist.Design.t -> Fbp_movebound.Instance.t * float
