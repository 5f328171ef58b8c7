(** Half-perimeter wirelength, the quality metric of all paper tables. *)

(** Weighted half-perimeter of one net's pin bounding box. *)
val of_net : Netlist.t -> Placement.t -> Netlist.net -> float

(** Sum of {!of_net} over the nets, in net order.  Allocates nothing. *)
val total : Netlist.t -> Placement.t -> float

(** [total] scaled by 1e-6 (the paper's table units). *)
val total_millions : Netlist.t -> Placement.t -> float
