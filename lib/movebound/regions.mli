(** Region decomposition (Definition 2 + Lemma 1): Hanan cells stamped with
    coverage signatures and merged into maximal regions. *)

open Fbp_geometry

type signature = {
  exclusive_owner : int;  (** movebound id, -1 = none *)
  inclusive : int list;  (** sorted ids of inclusive movebounds covering *)
}

type region = {
  id : int;
  area : Rect_set.t;
  signature : signature;
}

type t = {
  regions : region array;
  hanan : Hanan.t;
  region_of_cell : int array;  (** hanan cell -> region id *)
}

val n_regions : t -> int

(** May a cell of movebound [mb] ([-1] = unconstrained) sit in the region? *)
val admissible : region -> mb:int -> bool

(** Movebound ids covering the region (Definition 2's "M covers r"). *)
val covering_movebounds : region -> int list

(** Decompose the chip into maximal regions. Call after
    {!Instance.normalize} so exclusive areas overlap nothing. *)
val decompose : chip:Rect.t -> Movebound.t array -> t

(** Region containing a point (clamped into the chip). *)
val region_at : t -> Point.t -> region
