(** Circuits: rectangular cells connected by multi-pin nets.  Cell
    attributes are struct-of-arrays; a net is an array of pin records,
    whose float offsets are boxed. *)

type pin = {
  cell : int;  (** -1 for a fixed pad; otherwise a cell index *)
  dx : float;  (** offset from cell center, or absolute x for pads *)
  dy : float;
}

type net = { pins : pin array; weight : float }

type t = {
  n_cells : int;
  names : string array;
  widths : float array;
  heights : float array;
  fixed : bool array;  (** pre-placed macros keep their initial position *)
  movebound : int array;  (** movebound id; -1 = unconstrained *)
  nets : net array;
}

val n_cells : t -> int
val n_nets : t -> int
val n_pins : t -> int

(** Cell area (the "size(c)" of the paper). *)
val size : t -> int -> float

val total_movable_area : t -> float

(** Structural sanity check: array lengths, pin targets, weights, sizes. *)
val validate : t -> (unit, string) result

(** Incident net ids per cell (fresh arrays; cache at call sites). *)
val cell_nets : t -> int list array
