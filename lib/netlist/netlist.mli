(** Circuits: rectangular cells connected by multi-pin nets, all of it
    struct-of-arrays.  Net [i]'s pins are the slots
    [net_start.(i) .. net_start.(i + 1) - 1] of the pin arrays; the
    cell→net incidence is laid out the same way over [cell_net].  The
    type is private: {!make} is the one constructor, so the offsets span
    the pins and the incidence matches them. *)

type t = private {
  n_cells : int;
  names : string array;
  widths : float array;
  heights : float array;
  fixed : bool array;  (** pre-placed macros keep their initial position *)
  movebound : int array;  (** movebound id; -1 = unconstrained *)
  net_start : int array;  (** [n_nets + 1] offsets into the pin arrays *)
  net_weight : float array;
  pin_cell : int array;  (** -1 for a fixed pad; otherwise a cell index *)
  pin_dx : float array;  (** offset from cell center, or absolute x for pads *)
  pin_dy : float array;
  cell_net_start : int array;  (** [n_cells + 1] offsets into [cell_net] *)
  cell_net : int array;
      (** net ids per cell, ascending, one entry per pin of the cell *)
}

(** [make] takes the cell attributes and the nets (pins in net order) and
    computes the incidence.  [n_cells] is the length of [widths].  Raises
    [Invalid_argument] when array lengths disagree, [net_start] does not
    rise from 0 to the pin count, or a pin names a cell outside
    [\[-1, n_cells)]. *)
val make :
  names:string array ->
  widths:float array ->
  heights:float array ->
  fixed:bool array ->
  movebound:int array ->
  net_start:int array ->
  net_weight:float array ->
  pin_cell:int array ->
  pin_dx:float array ->
  pin_dy:float array ->
  t

val n_cells : t -> int
val n_nets : t -> int
val n_pins : t -> int

(** Number of pins of net [i]. *)
val degree : t -> int -> int

(** Cell area (the "size(c)" of the paper). *)
val size : t -> int -> float

val total_movable_area : t -> float

(** Content check: every net has a pin and a positive weight, every
    cell a positive size. *)
val validate : t -> (unit, string) result
