(** Quadratic placement solves (global and local, Section IV-B). *)

open Fbp_netlist

type stats = {
  vars : int;
  cg_iterations : int;
  residual : float;
  converged : bool;  (** both CG solves (x and y) converged *)
}

(** Reusable scratch of the local QP: the net-dedup stamp array and id
    buffer, a {!Netmodel.workspace} (which owns the assembled system), the
    x/y iterates, a {!Fbp_linalg.Cg.workspace}, and for the caller's
    transportation problem its sizes, capacities and cost matrix, a
    {!Fbp_flow.Transport.workspace} and a float buffer for per-sink
    boxes, all grow-only, so a warmed local assembly, solve and transport
    set-up allocate nothing for their arrays.  What a scratch hands out —
    the system, the iterates, a transport problem or assignment, the
    boxes — is valid until its next use of the same kind.  Not safe for
    concurrent use; give each sequential caller its own. *)
type scratch

val create_scratch : unit -> scratch

(** The scratch's transportation workspace. *)
val transport_workspace : scratch -> Fbp_flow.Transport.workspace

(** [transport_problem s ~n ~k]: a problem of [n] cells and [k] sinks
    over the scratch's buffers, of at least [n], [k] and [n * k] entries.
    Their contents are stale: the caller writes the first [n] sizes, [k]
    capacities and [n * k] costs before solving. *)
val transport_problem : scratch -> n:int -> k:int -> Fbp_flow.Transport.problem

(** [boxes s m]: the scratch's float buffer, of at least [m] entries,
    contents stale. *)
val boxes : scratch -> int -> float array

(** [iterates sys pos]: x and y vectors over [sys]'s variables,
    warm-started from [pos] (a star variable at 0).  With [scratch] they
    are its arrays, of at least [n_vars] entries, valid until its next
    [iterates] or solve; fresh exact-length arrays otherwise. *)
val iterates :
  ?scratch:scratch -> Netmodel.system -> Placement.t -> float array * float array

(** [solve_axes ~stagnate sys x y] improves [x] and [y] toward the x and
    y systems of [sys] with {!Fbp_linalg.Cg.iterate2}: in lockstep over
    the one shared matrix, on the calling domain, with [scratch]'s CG
    vectors (fresh ones otherwise).  [stagnate] holds the x and y faults
    the caller drew ({!Fbp_linalg.Cg.draw_fault}, x then y); no site is
    polled here, so it may run on any domain.  [groups] (over [sys]'s
    variables) constrain both axes ({!Fbp_linalg.Cg.groups}).  Returns
    the x and the y stats, unrecorded. *)
val solve_axes :
  ?scratch:scratch -> ?groups:Fbp_linalg.Cg.groups -> stagnate:bool * bool ->
  max_iter:int -> tol:float -> Netmodel.system -> float array -> float array ->
  Fbp_linalg.Cg.stats * Fbp_linalg.Cg.stats

(** Solve an assembled system, writing cell positions back into the
    placement (star variables are discarded).  The iterates are
    {!iterates}' (the scratch's when given).  Both axes' faults are drawn
    first on the calling domain, x then y ({!Fbp_linalg.Cg.draw_fault}).
    Both axis solves read the one shared matrix ([ax]).  Below 4096
    variables, or at one domain, they run in lockstep ({!solve_axes},
    with [scratch]'s vectors); from 4096 variables on at two or more
    domains ({!Config.effective_domains}) they run concurrently on the
    domain pool, one {!Fbp_linalg.Cg.iterate} each.  [groups] (over
    [sys]'s variables) constrain both axes on either path, with the same
    bits.  Metrics are recorded after the solves in fixed x-then-y order,
    so observation streams stay deterministic. *)
val solve_system :
  ?scratch:scratch -> ?groups:Fbp_linalg.Cg.groups -> Config.t ->
  Netmodel.system -> Placement.t -> stats

(** All movable cell ids of a netlist, ascending. *)
val all_movable : Netlist.t -> int array

(** Global QP over every movable cell.  [cache] enables symbolic-structure
    reuse across rounds (see {!Netmodel.cache}).  [anchor] follows
    {!Netmodel.assemble}'s contract: equal x and y weights, or
    [Invalid_argument].  [groups] are centre-of-gravity groups over cell
    ids (a fixed cell's entry is never read): each movable cell's
    variable takes its cell's group and weight, star variables stay free,
    and the solve keeps every group's weighted position sum at its value
    in [pos] ({!Fbp_linalg.Cg.groups}). *)
val solve_global :
  Config.t -> Netlist.t -> Placement.t ->
  ?cache:Netmodel.cache -> ?groups:Fbp_linalg.Cg.groups ->
  anchor:(int -> (float * float * float * float) option) -> unit -> stats

(** The local system over [cells], everything else fixed: the sorted,
    deduplicated nets incident to [cells] (read from the netlist's
    incidence into [scratch]'s id buffer, which {!Netmodel.assemble}
    reads as a view) assembled with [scratch]'s workspace, one matrix for both
    axes.  The system is a view of that workspace (arrays of at least
    [n_vars] entries), valid until the scratch's next assembly.  [anchor]
    weighs x and y alike (see {!Netmodel.assemble}).  Exposed for
    realization's per-node QP. *)
val assemble_local :
  Config.t -> Netlist.t -> Placement.t -> scratch ->
  cells:int array ->
  anchor:(int -> (float * float * float * float) option) -> Netmodel.system

(** Local QP over [cells] only, everything else fixed.  [scratch] reuses
    the dedup arrays and the assembly workspace across calls (one is
    allocated per call otherwise); [anchor] as in {!assemble_local}. *)
val solve_local :
  Config.t -> Netlist.t -> Placement.t ->
  ?scratch:scratch ->
  cells:int array ->
  anchor:(int -> (float * float * float * float) option) -> unit -> stats
