(** A movebounded placement instance: design + movebound table. *)

type t = {
  design : Fbp_netlist.Design.t;
  movebounds : Movebound.t array;  (** index = movebound id *)
}

val n_movebounds : t -> int

val movebound_of_cell : t -> int -> Movebound.t option

(** Movable cell area per movebound class; entry [n_movebounds t] holds
    the unconstrained cells' area. *)
val area_by_class : t -> float array

(** Structural checks, including the paper's preprocessing assumption that
    exclusive movebounds overlap no other movebound. *)
val validate : t -> (unit, string) result

(** Subtract exclusive areas from all other movebounds (the modification the
    paper assumes done "at the input"); [Error] if a movebound vanishes. *)
val normalize : t -> (t, string) result

(** Wrap a plain design as an instance with no movebounds. *)
val unconstrained : Fbp_netlist.Design.t -> t
