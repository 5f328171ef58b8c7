(** Feasibility of movebounded placement (Theorems 1–2): a clustered MaxFlow
    decides in polynomial time whether a fractional placement exists; the
    min cut witnesses the violated instance of inequality (1). *)

type verdict =
  | Feasible
  | Infeasible of {
      classes : int list;
          (** movebound ids (index [n_movebounds] = unconstrained class) on
              the source side of the min cut — a violating M′ of (1) *)
      demand : float;  (** total cell size of those classes *)
      capacity : float;  (** capacity of their admissible regions *)
    }

(** [check inst regions ~capacity_of] runs the clustered MaxFlow of
    Theorem 2. [capacity_of] maps a region to its free capacity. *)
val check :
  Instance.t -> Regions.t -> capacity_of:(Regions.region -> float) -> verdict

(** Normalize → decompose → check; returns the verdict and the regions.
    [capacity_of] defaults to region area times the design's target
    density. *)
val check_instance :
  ?capacity_of:(Regions.region -> float) ->
  Instance.t ->
  (verdict * Regions.t, string) result
