(** Realization of a flow solution (Section IV-B): topological processing
    of flow-carrying external arcs, local QP + movebound-aware
    transportation with Eq. (2) transit-buffer capacities, deterministic
    parallel waves.

    The node pipeline is flat: a (window, class) node is the int id
    [w * n_classes + m], and members, arcs, in-degrees and per-cell
    destinations live in arrays: no tuple, boxed float or hash-table
    entry is allocated per cell.  Each node solves both axes of its local QP in lockstep
    ({!Qp.solve_axes}) and its transportation problem out of its domain's
    {!Qp.scratch}: the local system, the iterates, the CG vectors and the
    transport set-up and assignment are views of it that do not outlive
    the node. *)

type step = {
  node_w : int;
  node_m : int;
  n_cells : int;
  shipped : float;  (** area sent over external arcs *)
  stayed : float;
}

type stats = {
  n_steps : int;
  n_waves : int;
  n_shipped_cells : int;
  n_fallback_cells : int;  (** cells placed without a flow prescription *)
  max_piece_overfill : float;  (** worst piece load minus capacity *)
}

type result = {
  piece_of_cell : int array;  (** cell → piece id (-1 for fixed cells) *)
  stats : stats;
}

(** [snapshot pos cells] is the compact per-wave position snapshot — the
    x and y coordinates of exactly [cells], in order.  O(|cells|), not
    O(design).  A node seeds its local QP from its snapshot and writes its
    cells' final positions back into it; the commit reads them from
    there. *)
val snapshot :
  Fbp_netlist.Placement.t -> int array -> float array * float array

(** Realize the flow, updating [pos] in place; [on_step] is the Figure-4
    trace hook.  With [Config.effective_domains cfg > 1], each wave large
    enough to pay for a wakeup is one {!Fbp_util.Pool.run_chunks} batch;
    commits stay in wave order on the calling domain, so results are
    bit-identical at any domain count.  The calling domain also draws
    every node's {!Fbp_resilience.Inject} faults (CG x, CG y, transport)
    in node order before a wave runs, so an armed registry fires the same
    sites in the same order at any domain count.  Each call observes
    [realization.seq_s]: the seconds the calling domain spent outside
    [run_chunks] (node inputs, commits, waves run sequentially). *)
val realize :
  ?on_step:(step -> unit) ->
  Config.t ->
  Fbp_movebound.Instance.t ->
  Fbp_movebound.Regions.t ->
  Fbp_model.solution ->
  Fbp_netlist.Placement.t ->
  result
