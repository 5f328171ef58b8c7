(** Half-perimeter wirelength, the quality metric of all paper tables. *)

(** [of_net nl p i]: weighted half-perimeter of net [i]'s pin bounding
    box. *)
val of_net : Netlist.t -> Placement.t -> int -> float

(** Sum of {!of_net} over the nets, in net order.  Allocates nothing. *)
val total : Netlist.t -> Placement.t -> float

(** [total] scaled by 1e-6 (the paper's table units). *)
val total_millions : Netlist.t -> Placement.t -> float
