(** Axis-parallel rectangles — the atom of all placement geometry.

    Coordinates are [x0 <= x1], [y0 <= y1]; constructors enforce this.
    Comparisons use a 1e-9 epsilon throughout. *)

type t = { x0 : float; y0 : float; x1 : float; y1 : float }

(** Raises [Invalid_argument] on negative extent. *)
val make : x0:float -> y0:float -> x1:float -> y1:float -> t

(** Rectangle from lower-left corner and size. *)
val of_corner : x:float -> y:float -> w:float -> h:float -> t

(** Rectangle from center and size. *)
val of_center : cx:float -> cy:float -> w:float -> h:float -> t

val width : t -> float
val height : t -> float
val area : t -> float

(** True when either extent is below epsilon. *)
val is_empty : t -> bool

val center : t -> Point.t
val contains_point : t -> Point.t -> bool

(** [contains r s]: is [s] entirely inside [r]? *)
val contains : t -> t -> bool

(** Positive-area overlap; touching edges do not count. *)
val overlaps : t -> t -> bool

(** [None] when the overlap has no positive area. *)
val intersect : t -> t -> t option

val intersection_area : t -> t -> float

(** Smallest rectangle containing both. *)
val bbox : t -> t -> t

(** Grow (or shrink, if negative) by [d] on every side. *)
val inflate : t -> float -> t

(** Nearest point of the rectangle to [p]. *)
val clamp_point : t -> Point.t -> Point.t

val dist_l1_point : t -> Point.t -> float

(** [subtract a b] decomposes [a \ b] into at most 4 disjoint rectangles. *)
val subtract : t -> t -> t list

val equal : ?eps:float -> t -> t -> bool

(** Do the rectangles share a boundary segment of positive length? *)
val adjacent : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
