(** Capacity model: how much cell area fits in a piece of chip —
    the "capa" of the paper's Section II. *)

open Fbp_geometry

type t = {
  blockages : Rect_set.t;
  density : float;
}

val create : Fbp_netlist.Design.t -> t
val of_parts : blockages:Rect.t list -> density:float -> t

(** (area − blockage overlap) × density, clamped at 0. *)
val capacity_rect : t -> Rect.t -> float

val capacity_set : t -> Rect_set.t -> float

(** Centroid of the free area (region-node embedding, Section IV-A);
    falls back to the raw centroid when fully blocked. *)
val free_centroid : t -> Rect_set.t -> Point.t

(** Union of full-height row strips inside the set, minus blockage
    x-extents: exactly the area a row legalizer can use. *)
val usable_rows_area : t -> chip:Rect.t -> row_height:float -> Rect_set.t -> Rect_set.t

(** Per-bin (usage, capacity) of movable cells under a placement. *)
val bin_utilization :
  Fbp_netlist.Design.t -> Fbp_netlist.Placement.t -> nx:int -> ny:int ->
  float array * float array

(** Fraction of total bin capacity exceeded by usage (0 = no bin overfull);
    the scalar density-overflow trajectory the flight recorder snapshots. *)
val overflow_fraction :
  Fbp_netlist.Design.t -> Fbp_netlist.Placement.t -> nx:int -> ny:int -> float
