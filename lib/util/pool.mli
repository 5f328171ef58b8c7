(** Persistent worker-domain pool with deterministic chunking.

    Worker domains are spawned once (lazily, up to an internal cap), parked
    on condition variables, and handed to parallel regions from a free
    list: a region costs two mutex handoffs per worker instead of a
    [Domain.spawn]/[join] pair.  Acquisition never blocks, so deadlock is
    impossible by construction.

    Parallelism happens at one level: regions are opened around
    independent solves (the global QP's x ‖ y {!fork2}, realization's
    {!lease_run} waves), and nothing those solves call opens another.
    The linear-algebra kernels run on the calling domain.

    Determinism contract: results are bit-identical for any domain count.
    Chunk count and boundaries depend only on the problem size; dynamic
    scheduling affects wall-clock only.

    The default domain count is [FBP_DOMAINS] when set (clamped to the
    pool cap), else [min 8 (Domain.recommended_domain_count ())]. *)

val set_default_domains : int -> unit
val get_default_domains : unit -> int

(** Number of chunks for [n] items at the given [grain] (target items per
    chunk), capped so partial arrays stay tiny.  Pure in [n] and [grain] —
    never a function of the domain count. *)
val n_chunks : grain:int -> int -> int

(** [chunk_bounds ~n ~n_chunks c] is the half-open range of chunk [c]. *)
val chunk_bounds : n:int -> n_chunks:int -> int -> int * int

(** [run_chunks ~domains ~n_chunks body] executes [body c] for every chunk
    [c] in [0, n_chunks), distributing chunks over up to [domains] domains
    (the caller plus free pool workers).  [body] must only write state
    private to its chunk.  If bodies raise, every chunk still runs and the
    first failure in chunk order is re-raised — no worker is ever lost and
    the pool is immediately reusable. *)
val run_chunks : ?domains:int -> n_chunks:int -> (int -> unit) -> unit

(** [fork2 f g] runs the two thunks concurrently when a worker is free
    (and [domains] resolves to at least 2), else sequentially.  If both
    raise, [f]'s exception wins (deterministic precedence). *)
val fork2 : ?domains:int -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

(** Domains the hardware can actually run at once
    ([Domain.recommended_domain_count], at least 1).  Callers sizing
    throughput parallelism should clamp to this: domains beyond the core
    count only time-slice and add wakeup latency.  Correctness never
    depends on it — the determinism contract holds at any domain count. *)
val hardware_domains : int

(** {1 Reusable leases}

    A lease holds acquired workers across many consecutive parallel
    regions (e.g. realization waves): helpers stay resident — spinning
    briefly, then parked — between {!lease_run} calls, so each region
    costs one batch submission instead of a per-region
    acquire/dispatch/release cycle per worker. *)

type lease

(** [lease ~domains ()] acquires up to [domains - 1] free workers as
    resident helpers.  Acquisition never blocks: with no free workers the
    lease has zero helpers and every {!lease_run} executes sequentially.
    Must be paired with {!release_lease}. *)
val lease : ?domains:int -> unit -> lease

(** Number of helper workers held by the lease (0 on an exhausted pool). *)
val lease_helpers : lease -> int

(** [lease_run l ~n_chunks body] executes [body c] for every chunk [c] in
    [0, n_chunks) across the lease's helpers plus the calling domain.
    Same contract as {!run_chunks}: [body] writes only chunk-private
    state; every chunk runs even under exceptions and the first failure
    in chunk order is re-raised, leaving the lease reusable.  Raises
    [Invalid_argument] after {!release_lease}. *)
val lease_run : lease -> n_chunks:int -> (int -> unit) -> unit

(** Stops the helpers and returns them to the pool's free list.
    Idempotent. *)
val release_lease : lease -> unit

(** [prewarm n] eagerly spawns (and parks) the workers that [n]-domain
    regions clamped to {!hardware_domains} will actually use, so
    domain-spawn cost never lands inside a timed or latency-sensitive
    path.  Never spawns beyond the core count: every live domain joins
    each minor-GC stop-the-world rendezvous, so surplus parked domains
    measurably tax sequential code on small machines. *)
val prewarm : int -> unit

(** Number of worker domains spawned so far (for tests/metrics). *)
val n_workers_spawned : unit -> int

(** {1 Profiling hook}

    Occupancy telemetry for [Fbp_obs.Profiler]: every worker scheduling
    transition (parked / spinning / running a batch, per-chunk start and
    stop, lease submission) is pushed through one optional process-global
    hook.  Disabled cost is a single [Atomic.get] per transition, and
    transitions happen per wave / per chunk — never per element. *)

type profile_kind =
  | Pe_park_begin  (** worker blocks on its condition variable *)
  | Pe_park_end
  | Pe_spin_begin  (** lease helper spinning on the epoch atomic *)
  | Pe_spin_end
  | Pe_run_begin  (** a dispatched job / lease batch starts executing *)
  | Pe_run_end
  | Pe_chunk_begin of int  (** chunk index within the current region *)
  | Pe_chunk_end of int
  | Pe_submit of int  (** lease batch submitted; payload is the new epoch *)

type profile_event = {
  pe_wid : int;  (** worker id; [-1] is the calling (owner) domain *)
  pe_domain : int;  (** [Domain.self] of the emitting domain *)
  pe_kind : profile_kind;
}

(** Install the hook.  The callback runs on worker domains (sometimes while
    holding a worker's own mutex), so it must be fast, never raise, and
    touch shared state only through a lock or atomics — fbp-lint's
    [domain-safety] rule walks closures passed here like any other pool
    entry point. *)
val set_profile_hook : (profile_event -> unit) -> unit

val clear_profile_hook : unit -> unit

(** Worker handoffs since process start: one per parked-worker job
    dispatch plus one per {!lease_run} batch submission.  Callers can
    record deltas to assert dispatch amortization (e.g. realization's
    [pool.dispatches] counter). *)
val n_dispatches : unit -> int
