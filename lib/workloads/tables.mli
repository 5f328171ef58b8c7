(** Reproduction of the paper's Tables I–VII: generate workloads, run the
    placers, render paper-shaped ASCII tables with the paper's own ratios
    alongside. *)

open Fbp_util

(** Table I: FBP sizes/runtimes per grid level on a movebound design
    (default: the erhard scenario). Returns the table and the FBP metrics. *)
val table1 : ?design:string -> unit -> Table.t * Runner.metrics

type row2 = {
  name : string;
  n_cells : int;
  rql : Runner.metrics;
  fbp : Runner.metrics;
  paper_pct : float;
  paper_speedup : float;
}

(** Table II: RQL vs FBP without movebounds ([names] restricts designs). *)
val table2 : ?names:string list -> unit -> Table.t * row2 list

(** Table III: movebound scenario statistics; returns the instances too. *)
val table3 :
  ?scenarios:Mb_gen.scenario list -> unit ->
  Table.t * (Mb_gen.scenario * Fbp_movebound.Instance.t) list

type row_mb = {
  mname : string;
  mrql : Runner.metrics;
  mfbp : Runner.metrics;
}

(** Table IV: inclusive movebounds. *)
val table4 : ?scenarios:Mb_gen.scenario list -> unit -> Table.t * row_mb list

(** Table V: exclusive movebounds (non-nested scenarios). *)
val table5 : ?designs:string list -> unit -> Table.t * row_mb list

(** Table VI: global vs legalization split of Table IV's FBP runs. *)
val table6 : row_mb list -> Table.t

(** Table VII: ISPD-2006-style contest scoring vs the Kraftwerk2 baseline. *)
val table7 : ?specs:Ispd.spec list -> unit -> Table.t

(** Ablations of the DESIGN.md design choices on design [rabe]: no local
    QP, 4 domains, an early refinement stop, BestChoice clustering, the
    flow legalizer and the recursive-partitioning baseline, each beside the
    default FBP run.  A failing variant gets an error row. *)
val ablations : unit -> Table.t
