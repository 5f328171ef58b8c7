(** Property-based scenario fuzzer for the placement pipeline.

    Generates random design / movebound / fault configurations (the
    "scenario zoo": macro-heavy floorplans with dead space, non-convex and
    overlapping movebounds, inclusive+exclusive mixes, degenerate grids,
    near-full utilization), runs each through the full placer with the
    sanitizer enabled, and checks every run against the sanitizer
    invariants plus the feasibility promise of Theorems 1–3.  Crossing
    scenarios with the {!Fbp_resilience.Inject} fault axis gives the fault
    matrix: every scenario × fault combination must terminate with a
    documented taxonomy exit code, never an uncaught exception.

    All randomness routes through {!Fbp_util.Rng} (SplitMix64), so a seed
    reproduces the whole campaign bit-for-bit; failing scenarios are
    shrunk ({!Fbp_resilience.Shrink}) and written as self-contained JSON
    repro artifacts replayable with [fbp_place fuzz --replay]. *)

type mb_shape =
  | No_movebounds
  | Islands  (** disjoint voltage-island rectangles *)
  | Flatten  (** guillotine partition of the chip *)
  | Overlapping  (** inflated guillotine leaves plus a nested bound *)
  | Mixed  (** overlapping shapes with alternating inclusive/exclusive *)

type fault_site = Mcf | Cg | Parse | Level | Transport | Legalize
type fault_kind = Infeasible | Stagnate | Corrupt | Raise | Delay

type fault_plan = {
  site : fault_site;
  kind : fault_kind;
  fault_after : int;  (** skip the first N polls of the site *)
}

(** A self-contained, serializable test case: everything needed to rebuild
    the design, the movebound configuration, the placer config and the
    injected fault. *)
type scenario = {
  seed : int;  (** netlist-generator seed; unique per scenario *)
  n_cells : int;
  utilization : float;
  n_macros : int;
  macro_fraction : float;
  avg_net_degree : float;
  locality : float;
  mb_shape : mb_shape;
  n_movebounds : int;
  coverage : float;  (** fraction of cells bound to a movebound *)
  mb_density : float;  (** per-movebound density cap *)
  exclusive : bool;  (** all movebounds exclusive (when not [Mixed]) *)
  max_levels : int;  (** 1 = degenerate single-level grid *)
  strict : bool;
  deadline : float option;
  round_trip : bool;  (** write/parse through Bookshelf (the Parse stage) *)
  fault : fault_plan option;
}

(** Outcome of one scenario run. *)
type outcome =
  | Passed  (** placer succeeded and every fuzz invariant held *)
  | Typed of Fbp_resilience.Fbp_error.t  (** documented taxonomy failure *)
  | Invariant of string  (** run "succeeded" but an invariant is violated *)
  | Uncaught of string  (** an undocumented exception escaped *)

type run_result = {
  outcome : outcome;
  fault_fired : bool;  (** the armed fault was actually reached *)
}

(** A shrunk finding: either a real failure (invariant violation, uncaught
    exception, escaped corruption) or a control (an injected corruption
    correctly caught by the sanitizer, kept as a replayable artifact). *)
type finding = {
  original : scenario;
  shrunk : scenario;
  signature : string;  (** failure class; preserved by shrinking *)
  detail : string;  (** outcome label of the shrunk run *)
  shrink_steps : int;
  artifacts : string list;  (** files written (repro JSON, run record) *)
}

type report = {
  fuzz_seed : int;
  total_scenarios : int;
  total_runs : int;  (** > scenarios in matrix mode *)
  n_passed : int;
  n_typed : int;
  typed_by_class : (string * int) list;  (** sorted by class name *)
  n_controls : int;  (** sanitizer catches of injected corruption *)
  controls : finding list;  (** shrunk controls (artifact cap applies) *)
  failures : finding list;  (** real failures — must be empty *)
  digest : int;  (** order-sensitive hash of all run outcomes *)
  truncated : bool;  (** the time cap expired before [count] scenarios *)
}

(** The scenario × fault matrix cells: every (site, kind) combination the
    pipeline documents. *)
val matrix_cells : (fault_site * fault_kind) list

(** Draw one scenario from the zoo distribution; [seed] becomes the
    scenario's generator seed. *)
val gen_scenario : Fbp_util.Rng.t -> seed:int -> scenario

(** Attach a fault-matrix cell, forcing the preconditions it needs
    (Parse faults need [round_trip]; [Delay] needs a deadline). *)
val with_fault : scenario -> fault_site * fault_kind -> scenario

(** Run one scenario end to end (generate → optional Bookshelf round-trip
    → movebound attach → feasibility preflight → place → legalize) with
    the sanitizer forced on and the scenario's fault armed.  Restores the
    global sanitizer flag and injection registry afterwards. *)
val run_scenario : scenario -> run_result

val outcome_label : outcome -> string

(** Run a fuzzing campaign.  [matrix] additionally runs every generated
    scenario against all {!matrix_cells}.  [time_cap] is a wall-clock
    bound in seconds — generation stops early (reported as [truncated])
    but never mid-scenario.  [out_dir] enables artifact writing: the
    [n]th finding of the campaign writes [repro-NNN-SEED.json] and
    [record-NNN-SEED.json], [NNN] being [n] (from 1, zero-padded to three
    digits) and [SEED] the shrunk scenario's seed. *)
val run :
  ?matrix:bool ->
  ?time_cap:float ->
  ?out_dir:string ->
  seed:int ->
  count:int ->
  unit ->
  report

(** Human-readable report (no timing — byte-stable for a given seed). *)
val render_report : report -> string

(** Serialize a finding as a self-contained repro artifact. *)
val repro_to_json : finding -> string

(** Parse the shrunk scenario back out of a repro artifact. *)
val repro_of_json : string -> (scenario, string) result

val scenario_to_json : scenario -> string
val scenario_of_json : string -> (scenario, string) result
