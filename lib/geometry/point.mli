(** Points in abstract layout units (row height = 1.0). *)

type t = { x : float; y : float }

val make : float -> float -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

(** L1 (Manhattan) distance — the cost metric of the paper's flow model. *)
val dist_l1 : t -> t -> float

val dist_l2 : t -> t -> float

(** Componentwise equality within [eps] (default 1e-9). *)
val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
