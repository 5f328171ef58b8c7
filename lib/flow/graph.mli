(** Residual flow networks with arena-allocated arcs.

    Each [add_edge] creates a forward arc (even id) and its residual twin
    (odd id); the twin of arc [a] is [rev a = a lxor 1]. Capacities, flows
    and costs are floats (cell sizes are areas). *)

type t

(** [create n] makes an empty network on nodes [0 .. n-1]. *)
val create : int -> t

val n_nodes : t -> int

(** Total number of arcs including residual twins. *)
val n_arcs : t -> int

(** [reserve t e] grows the arc arena to hold at least [e] edges (2e arcs
    with their twins), at least twofold when it grows, keeping the arcs:
    a builder that knows its edge count reserves once, and on an empty
    network the arena is then exactly that size. *)
val reserve : t -> int -> unit

(** Add a directed arc; returns the (even) forward arc id.
    Raises [Invalid_argument] on bad endpoints or negative capacity. *)
val add_edge : t -> u:int -> v:int -> cap:float -> cost:float -> int

(** Residual twin of an arc. *)
val rev : int -> int

val dst : t -> int -> int
val src : t -> int -> int

(** Remaining residual capacity. *)
val capacity : t -> int -> float

(** Capacity as given at construction (0 for twins). *)
val original_capacity : t -> int -> float

val cost : t -> int -> float

(** Flow currently on a forward arc. *)
val flow : t -> int -> float

(** [copy_edges t ~src ~dst ~cap ~cost] writes forward arc [2e]'s tail,
    head, residual capacity and cost into entry [e] of each array, for
    every edge [e] ([n_arcs t / 2] of them; the arrays may be longer). *)
val copy_edges :
  t -> src:int array -> dst:int array -> cap:float array -> cost:float array -> unit

(** [edge_flows t out] writes [flow t (2e)] into [out.(e)] for every edge
    [e] ([out] may be longer). *)
val edge_flows : t -> float array -> unit

(** [push t a delta] sends [delta] units over arc [a]. *)
val push : t -> int -> float -> unit

(** Iterate over all arcs (forward and residual) leaving a node. *)
val iter_out : t -> int -> (int -> unit) -> unit

val fold_out : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

(** Iterate over forward arcs only. *)
val iter_edges : t -> (int -> unit) -> unit

(** Remove all flow, restoring original capacities. *)
val reset_flow : t -> unit
