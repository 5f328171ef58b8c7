(** Resident helper gang with deterministic chunking.

    The pool owns one gang of helper domains, spawned lazily (up to an
    internal cap) and never torn down; between batches they spin briefly,
    then park.  {!run_chunks} is the only parallel region ({!fork2} is two
    chunks of it): it claims the whole gang for one batch, which costs one
    submission however many helpers take part.

    One level of parallelism, by construction: a region opened while the
    gang is claimed — inside a chunk, or from another domain — runs its
    chunks in order on the calling domain and spawns nothing.  Regions are
    opened around independent solves (the global QP's x ‖ y {!fork2},
    realization's waves); the linear-algebra kernels run on the calling
    domain.

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
    (the caller plus the gang's first [domains - 1] helpers, spawned on
    first need).  [body] must only write state private to its chunk.  If
    bodies raise, every chunk still runs and the first failure in chunk
    order is re-raised; the pool is immediately reusable.  With one domain,
    or while the gang is claimed by another region, the chunks run in order
    on the calling domain. *)
val run_chunks : ?domains:int -> n_chunks:int -> (int -> unit) -> unit

(** [fork2 f g] is {!run_chunks} with two chunks: [f] and [g] run
    concurrently when [domains] resolves to at least 2 and the gang is
    free, else [f] then [g] on the caller.  If both raise, [f]'s exception
    wins (deterministic precedence). *)
val fork2 : ?domains:int -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

(** Domains the hardware can actually run at once
    ([Domain.recommended_domain_count], at least 1).  Callers sizing
    throughput parallelism should clamp to this: domains beyond the core
    count only time-slice and add wakeup latency.  Correctness never
    depends on it — the determinism contract holds at any domain count. *)
val hardware_domains : int

(** [prewarm n] eagerly spawns (and parks) the helpers that [n]-domain
    regions clamped to {!hardware_domains} will actually use, so
    domain-spawn cost never lands inside a timed or latency-sensitive
    path.  Never spawns beyond the core count: every live domain joins
    each minor-GC stop-the-world rendezvous, so surplus parked domains
    measurably tax sequential code on small machines.  Does nothing while
    the gang is claimed. *)
val prewarm : int -> unit

(** Number of helper domains spawned so far (for tests/metrics). *)
val n_workers_spawned : unit -> int

(** {1 Profiling hook}

    Occupancy telemetry for [Fbp_obs.Profiler]: every scheduling
    transition (helper parked / spinning / running a batch, per-chunk
    start and stop, batch submission) is pushed through one optional
    process-global hook.  Disabled cost is a single [Atomic.get] per
    transition, and transitions happen per batch / per chunk — never per
    element. *)

type profile_kind =
  | Pe_park_begin  (** helper blocks on the gang's condition variable *)
  | Pe_park_end
  | Pe_spin_begin  (** helper spinning on the epoch atomic *)
  | Pe_spin_end
  | Pe_run_begin  (** a domain starts draining a batch *)
  | Pe_run_end
  | Pe_chunk_begin of int  (** chunk index within the current region *)
  | Pe_chunk_end of int
  | Pe_submit of int  (** batch submitted; payload is the new epoch *)

type profile_event = {
  pe_wid : int;  (** helper id; [-1] is the calling (owner) domain *)
  pe_domain : int;  (** [Domain.self] of the emitting domain *)
  pe_kind : profile_kind;
}

(** Install the hook.  The callback runs on helper domains, so it must be
    fast, never raise, and touch shared state only through a lock or
    atomics — fbp-lint's [domain-safety] rule walks closures passed here
    like any other pool entry point. *)
val set_profile_hook : (profile_event -> unit) -> unit

val clear_profile_hook : unit -> unit

(** Batches submitted to the gang since process start: one per region
    that reached the helpers.  Callers can record deltas to assert
    dispatch amortization (e.g. realization's [pool.dispatches]
    counter). *)
val n_dispatches : unit -> int
