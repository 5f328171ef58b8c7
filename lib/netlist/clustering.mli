(** BestChoice clustering (Nam et al., the paper's experimental setup uses
    it with cluster ratio 5 for the industrial tables and 2 for ISPD).

    Score-based bottom-up merging (connectivity over combined area) with a
    lazy-update global heap, down to n/ratio clusters.  Fixed cells never
    merge; a cluster keeps a movebound only when all members agree. *)

type t = {
  coarse : Netlist.t;
  cluster_of : int array;  (** original cell → coarse cell *)
  members : int list array;  (** coarse cell → original cells *)
}

(** [best_choice ~ratio nl] clusters to ~[n/ratio] cells. *)
val best_choice : ?ratio:float -> Netlist.t -> t

(** Cluster positions = area-weighted member centroids. *)
val coarse_placement : t -> Netlist.t -> Placement.t -> Placement.t

(** Write every member at its cluster's position into [out]. *)
val expand : t -> Placement.t -> Placement.t -> unit
