(** RQL-style baseline [25]: relaxed quadratic spreading with
    linearization, soft movebound handling (clip-to-bound); can violate
    movebounds on hard instances — exactly the Table IV/V phenomenon. *)

open Fbp_netlist

type report = {
  placement : Placement.t;
  iterations : int;
  global_time : float;
  legalize_time : float;
  hpwl : float;  (** legal placement HPWL *)
}

val place : Fbp_movebound.Instance.t -> (report, string) result
