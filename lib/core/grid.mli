(** Window grids (the Γ of Section III) and region-in-window pieces (the
    region nodes of the flow model; their count is Table I's |R|). *)

open Fbp_geometry

type window = {
  index : int;
  wx : int;
  wy : int;
  rect : Rect.t;
}

type piece = {
  id : int;  (** dense over all pieces of the level *)
  window : int;  (** owning window index *)
  region : int;  (** global region id (signature lookup) *)
  area : Rect_set.t;
  capacity : float;
  centroid : Point.t;  (** of the free area — the region-node embedding *)
}

type t = {
  chip : Rect.t;
  nx : int;
  ny : int;
  windows : window array;
  pieces : piece array;
  piece_start : int array;
      (** length [n_windows + 1]: pieces are numbered window by window, so
          the pieces of window [w] are exactly the ids
          [piece_start.(w) .. piece_start.(w + 1) - 1] *)
}

val n_windows : t -> int
val n_pieces : t -> int
val window_index : t -> wx:int -> wy:int -> int

(** Window containing a point (clamped into the grid). *)
val window_at : t -> Point.t -> int

(** 4-neighbours as (direction, window) with 0=N 1=E 2=S 3=W. *)
val neighbors : t -> int -> (int * int) list

(** Boundary midpoint for a direction — the transit-node embedding. *)
val boundary_point : t -> int -> int -> Point.t

val opposite_dir : int -> int

(** Build the grid and its region pieces.  [usable] maps region ids to
    row-usable areas (capacities are then measured against them);
    [capacity_factor]/[capacity_slack] derate piece capacities for
    legalizability. Raises [Invalid_argument] for an empty grid. *)
val create :
  ?usable:Rect_set.t array ->
  ?capacity_factor:float ->
  ?capacity_slack:float ->
  chip:Rect.t ->
  nx:int ->
  ny:int ->
  regions:Fbp_movebound.Regions.t ->
  density:Density.t ->
  unit ->
  t
