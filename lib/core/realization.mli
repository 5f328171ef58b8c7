(** Realization of a flow solution (Section IV-B): topological processing
    of flow-carrying external arcs, local QP + movebound-aware
    transportation with Eq. (2) transit-buffer capacities, deterministic
    parallel waves. *)

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
    O(design); exported for the wave-snapshot unit tests. *)
val snapshot :
  Fbp_netlist.Placement.t -> int array -> float array * float array

(** Realize the flow, updating [pos] in place; [on_step] is the Figure-4
    trace hook.  [cell_nets] is the {!Fbp_netlist.Netlist.cell_nets}
    cache.  With [Config.effective_domains cfg > 1], each wave large
    enough to pay for a wakeup is one {!Fbp_util.Pool.run_chunks} batch;
    commits stay in wave order on the calling domain, so results are
    bit-identical at any domain count. *)
val realize :
  ?on_step:(step -> unit) ->
  Config.t ->
  Fbp_movebound.Instance.t ->
  Fbp_movebound.Regions.t ->
  Fbp_model.solution ->
  Fbp_netlist.Placement.t ->
  cell_nets:int list array ->
  result
