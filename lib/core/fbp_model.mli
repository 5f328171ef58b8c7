(** The flow-based partitioning model (Section IV-A): cell-group, transit
    and region nodes per window, the four internal edge families plus
    zero-cost external transit arcs, solved as a MinCostFlow whose size is
    linear in |W| + |R| (Table I's property — independent of cell count). *)

open Fbp_geometry
open Fbp_flow

type group = {
  w : int;  (** window *)
  m : int;  (** class: movebound id, or [n_movebounds] for unconstrained *)
  cells : int list;
  total : float;  (** total cell area (the node's supply) *)
  cog : Point.t;  (** center of gravity (the node's embedding) *)
}

type arc_kind =
  | Cell_to_piece of { group : int; piece : int }  (** E^cr *)
  | Cell_to_transit of { group : int; dir : int }  (** E^ct *)
  | Transit_to_transit of { w : int; m : int; from_dir : int; to_dir : int }
      (** E^tt *)
  | Transit_to_piece of { w : int; m : int; dir : int; piece : int }  (** E^tr *)
  | External of { m : int; from_w : int; to_w : int; from_dir : int }
      (** E^ext (zero cost) *)

type t = {
  grid : Grid.t;
  n_classes : int;
  groups : group array;
  group_index : (int * int, int) Hashtbl.t;
  graph : Graph.t;
  supply : float array;
  arcs : (int * arc_kind) array;
  n_nodes : int;
  n_edges : int;  (** forward arcs (Table I's |E|) *)
  relaxed : bool;
      (** built with [relax_penalty]: arcs into inadmissible pieces exist,
          so a cell may legitimately land outside its movebound *)
}

type external_flow = {
  xm : int;  (** class *)
  from_w : int;
  to_w : int;
  from_dir : int;
  amount : float;
}

type solution = {
  model : t;
  verdict : Mcf.result;
  mcf_rounds : int;  (** network simplex pivots of the MinCostFlow solve *)
  allot : float array;
      (** area of class m prescribed to piece p at [p * n_classes + m] *)
  externals : external_flow list;  (** flow-carrying external arcs (a DAG) *)
}

(** Build the instance from current cell positions.  [relax_penalty] (the
    degradation ladder's movebound slack relaxation) also adds arcs into
    inadmissible pieces at base cost plus the penalty, so infeasibility can
    only come from genuine capacity shortage. *)
val build :
  ?relax_penalty:float ->
  Fbp_movebound.Instance.t -> Fbp_movebound.Regions.t -> Grid.t ->
  Fbp_netlist.Placement.t -> t

(** Solve exactly with the network simplex.  The flow is a basic solution,
    so the flow-carrying external arcs lie in the spanning tree and
    [externals] is acyclic per class.  Verdict [Infeasible] certifies
    (Theorem 3) that no fractional movebounded placement exists. *)
val solve : t -> solution

(** Flow prescribed from class [m] into piece [piece]. *)
val allotment : solution -> piece:int -> m:int -> float
