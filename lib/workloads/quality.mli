(** Paired quality runs: HPWL, legality and movebound violations of the
    FBP pipeline ({!Runner.run_fbp} at one domain) over the 21 Table II
    designs and the 13 Table IV/V movebound scenarios (8 inclusive, 5
    exclusive islands, attached with {!Mb_gen.attach_feasible} as
    [fbp_place tables] does), at a list of seeds.  No timing is recorded,
    so a document is a pure function of the code, the seeds and the scale
    ({!Designs.scale}): two runs give byte-identical documents, and two
    documents compare run by run with no noise. *)

type outcome = {
  hpwl : float;  (** after legalization *)
  hpwl_global : float;  (** before legalization *)
  legal : bool;
  violations : int;  (** movebound violations *)
  degradations : string list;  (** {!Fbp_core.Placer.degradation_to_string} *)
}

type run = {
  design : string;
  movebounds : string;  (** ["none"], ["inclusive"] or ["exclusive"] *)
  seed : int;  (** added to the design spec's generator seed *)
  cells : int;
  outcome : (outcome, string) result;  (** a typed failure's message *)
}

(** Every design and scenario at each seed, seeds outermost; [quick]
    keeps the designs of {!Designs.quick_names} only. *)
val runs : ?quick:bool -> seeds:int list -> unit -> run list

(** The document: a schema tag, the scale, the seeds, then one run per
    line. *)
val to_string : seeds:int list -> run list -> string

(** The runs of a document {!to_string} wrote. *)
val of_string : string -> (run list, string) result

(** The paired comparison: [lines] to print (the paired and unpaired
    counts; the median and worst HPWL ratio, candidate over base; the
    runs worse by more than 1% and by more than 2%; the legal runs on
    each side; each legality or violation regression), and the number of
    regressions: paired runs that fail, turn illegal or gain movebound
    violations in [cand]. *)
type comparison = { lines : string list; regressions : int }

val compare : base:run list -> cand:run list -> comparison
