(** Finite unions of axis-parallel rectangles, kept pairwise disjoint.

    Movebound areas (Definition 1 of the paper) and regions (Definition 2)
    are finite sets of rectangles; this module supplies their boolean
    algebra: measurement, the "covers" relation, subtraction (blockages,
    exclusive areas) and point projection. *)

type t

val empty : t
val is_empty : t -> bool

(** The disjoint rectangles making up the set. *)
val rects : t -> Rect.t list

val of_rect : Rect.t -> t

(** Union of arbitrary (possibly overlapping) rectangles. *)
val of_rects : Rect.t list -> t

(** Unchecked fast path for rectangles the caller guarantees pairwise
    disjoint (e.g. Hanan cells). *)
val of_disjoint : Rect.t list -> t

(** [add t r] inserts [r], preserving disjointness. *)
val add : t -> Rect.t -> t

val union : t -> t -> t
val area : t -> float
val subtract : t -> t -> t
val intersect_rect : t -> Rect.t -> t
val intersect : t -> t -> t

(** Is the rectangle entirely inside the union? *)
val covers_rect : t -> Rect.t -> bool

(** [covers t s]: is the set [s] entirely inside [t]?  This is the
    "M covers r" relation of Definition 2. *)
val covers : t -> t -> bool

val contains_point : t -> Point.t -> bool
val overlaps_rect : t -> Rect.t -> bool
val overlaps : t -> t -> bool
val overlap_area : t -> t -> float

(** Nearest point of the set in L2. Raises [Invalid_argument] on empty. *)
val project_point : t -> Point.t -> Point.t

(** L1 distance from a point to the set ([infinity] for the empty set). *)
val dist_l1_point : t -> Point.t -> float

(** Area-weighted centroid — the embedding of region nodes in the flow
    model. Raises [Invalid_argument] on a zero-area set. *)
val center_of_gravity : t -> Point.t

(** Raises [Invalid_argument] on empty. *)
val bbox : t -> Rect.t

val pp : Format.formatter -> t -> unit
