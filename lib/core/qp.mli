(** Quadratic placement solves (global and local, Section IV-B). *)

open Fbp_netlist

type stats = {
  vars : int;
  cg_iterations : int;
  residual : float;
  converged : bool;  (** both CG solves (x and y) converged *)
}

(** Solve an assembled system, writing cell positions back into the
    placement (star variables are discarded).  From 4096 variables on,
    the x- and y-axis CG solves run concurrently on the domain pool,
    within {!Config.effective_domains}; metrics are recorded after the
    join in fixed x-then-y order, so observation streams stay
    deterministic. *)
val solve_system : Config.t -> Netmodel.system -> Placement.t -> stats

(** All movable cell ids of a netlist. *)
val all_movable : Netlist.t -> int array

(** Global QP over every movable cell.  [cache] enables symbolic-structure
    reuse across rounds (see {!Netmodel.cache}). *)
val solve_global :
  Config.t -> Netlist.t -> Placement.t ->
  ?cache:Netmodel.cache ->
  anchor:(int -> (float * float * float * float) option) -> unit -> stats

(** Reusable scratch of the local QP: the net-dedup stamp array and id
    buffer plus a {!Netmodel.workspace}, so a local assembly allocates
    little beyond the system it returns.  Not safe for concurrent use;
    give each sequential caller its own. *)
type scratch

val create_scratch : unit -> scratch

(** The local system over [cells], everything else fixed: the sorted,
    deduplicated nets incident to [cells] ([cell_nets] is the cached
    incidence map from {!Netlist.cell_nets}) assembled with [scratch]'s
    workspace.  Exposed for realization's per-node QP. *)
val assemble_local :
  Config.t -> Netlist.t -> Placement.t -> scratch ->
  cell_nets:int list array -> cells:int array ->
  anchor:(int -> (float * float * float * float) option) -> Netmodel.system

(** Local QP over [cells] only, everything else fixed.  [scratch] reuses
    the dedup arrays and the assembly workspace across calls (one is
    allocated per call otherwise). *)
val solve_local :
  Config.t -> Netlist.t -> Placement.t ->
  ?scratch:scratch ->
  cell_nets:int list array -> cells:int array ->
  anchor:(int -> (float * float * float * float) option) -> unit -> stats
