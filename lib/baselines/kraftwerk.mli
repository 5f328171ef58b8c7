(** Kraftwerk2-style baseline [21]: force-directed quadratic placement with
    a Poisson demand-and-supply potential (Gauss–Seidel).  The Table VII
    comparator. *)

open Fbp_netlist

(** The RQL baseline's report: both comparators report the same. *)
type report = Rql.report = {
  placement : Placement.t;
  iterations : int;
  global_time : float;
  legalize_time : float;
  hpwl : float;
}

val place : Fbp_movebound.Instance.t -> (report, string) result
