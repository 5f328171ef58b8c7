(** Movebound-aware legalization (Section III): per-region Tetris/Abacus
    with interval packing on a site lattice, spill into admissible regions,
    compaction and cross-class eviction for stragglers. *)

open Fbp_netlist

type stats = {
  n_legalized : int;
  n_spilled : int;  (** placed outside their assigned region (still legal) *)
  n_failed : int;  (** cells with no admissible space anywhere *)
  avg_displacement : float;
  max_displacement : float;
  time : float;
}

(** Legalize in place.  Cells are grouped by the global region of their
    assigned piece (the paper's ρ : C → R); cells without a piece fall back
    to the region containing their position.  [movebound_aware:false] lets
    spills land in any region (the RQL baseline's behaviour — violations
    then possible and counted upstream).  Each run adds to the counters
    [legalize.scanned_intervals] (free intervals the spot search
    examined), [legalize.compactions] and [legalize.evictions] (firings
    of the two last-resort rungs). *)
val run :
  ?movebound_aware:bool ->
  Fbp_movebound.Instance.t ->
  Fbp_movebound.Regions.t ->
  Placement.t ->
  piece_of_cell:int array ->
  grid:Fbp_core.Grid.t option ->
  stats

(** {!run} without its fault-injection site and containment audit, also
    returning the cells that found no admissible space (ascending ids);
    the tests compare it against a reference legalizer. *)
val legalize :
  ?movebound_aware:bool ->
  Fbp_movebound.Instance.t ->
  Fbp_movebound.Regions.t ->
  Placement.t ->
  piece_of_cell:int array ->
  grid:Fbp_core.Grid.t option ->
  stats * int list
