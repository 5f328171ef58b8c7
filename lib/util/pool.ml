(* Resident helper gang with deterministic chunking.

   [Domain.spawn] costs tens of microseconds and a GC handshake; the seed
   paid it for every parallel realization wave.  The pool owns one gang of
   helper domains, spawned once and never torn down.  [run_chunks] is the
   only parallel region ([fork2] is two chunks of it): the region's owner
   claims the whole gang with one compare-and-set, publishes its batch with
   one epoch bump, drains chunks alongside the helpers and waits on a
   completion latch.  Between batches helpers spin briefly on the epoch
   (consecutive realization waves are microseconds apart), then park on a
   condition variable.

   One level of parallelism, by construction.  A region opened while the
   gang is claimed — inside a chunk, or from another domain — runs its
   chunks in order on the calling domain and spawns nothing.  Regions are
   opened only around independent solves (the global QP's x ‖ y [fork2]
   and realization's waves); the CG kernels in [Vec] and [Csr] run on the
   calling domain.  On OCaml 5 every live domain joins each minor-GC
   rendezvous, so a domain beyond the budget taxes even sequential code
   (DESIGN §9, findings 4 and 5).

   Determinism contract: results must be bit-identical for any domain
   count.  Work is split into chunks whose count and boundaries depend
   only on the problem size ([n_chunks] / [chunk_bounds]), never on how
   many domains execute them; [Vec]'s reductions use the same chunking
   for their fixed summation shape.  Which domain executes which chunk is
   scheduled dynamically (an atomic cursor), but every chunk writes only
   its own slot, so scheduling cannot influence results — only
   wall-clock. *)

(* Hard cap on helper domains (domains beyond the caller's).  Far above any
   sane [FBP_DOMAINS]; placement kernels are memory-bound long before. *)
let max_workers = 30

let default_domains =
  let fallback () = max 1 (min 8 (Domain.recommended_domain_count ())) in
  Atomic.make
    (match Sys.getenv_opt "FBP_DOMAINS" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n (max_workers + 1)
      | _ -> fallback ())
    | None -> fallback ())

let set_default_domains n =
  Atomic.set default_domains (max 1 (min n (max_workers + 1)))

let get_default_domains () = Atomic.get default_domains

let resolve = function
  | Some d -> max 1 (min d (max_workers + 1))
  | None -> Atomic.get default_domains

(* Domains the hardware can actually run at once.  Callers sizing
   *throughput* parallelism (realization's waves, the QP's x ‖ y fork)
   clamp to this: extra domains beyond the core count only time-slice one
   core and add wakeup latency — the root of realization's anti-scaling
   (DESIGN §9, finding 4).  Correctness never depends on it (the
   determinism contract holds at any domain count). *)
let hardware_domains = max 1 (Domain.recommended_domain_count ())

(* Batches submitted to the gang since process start, one per parallel
   region that reached the helpers.  Exposed so callers can assert
   dispatch amortization — e.g. realization records the per-call delta as
   the [pool.dispatches] counter. *)
let dispatches = Atomic.make 0

let n_dispatches () = Atomic.get dispatches

(* -------------------------------------------------------- profiling hook *)

(* Occupancy telemetry for the profiler: every scheduling transition a
   domain makes (parked / spinning / running, per-chunk start/stop, batch
   submission) is pushed through one optional hook.  The disabled path is
   a single [Atomic.get] per transition — the same budget as an [Obs]
   probe — and transitions happen per batch / per chunk, never per
   element, so an armed hook stays out of the kernels' way too. *)

type profile_kind =
  | Pe_park_begin  (* helper blocks on the gang's condition variable *)
  | Pe_park_end
  | Pe_spin_begin  (* helper spinning on the epoch atomic *)
  | Pe_spin_end
  | Pe_run_begin  (* a domain starts draining a batch *)
  | Pe_run_end
  | Pe_chunk_begin of int  (* chunk index within the current region *)
  | Pe_chunk_end of int
  | Pe_submit of int  (* batch submitted; payload is the new epoch *)

type profile_event = {
  pe_wid : int;  (* helper id; -1 is the calling (owner) domain *)
  pe_domain : int;  (* [Domain.self] of the emitting domain *)
  pe_kind : profile_kind;
}

let profile_hook : (profile_event -> unit) option Atomic.t = Atomic.make None
let set_profile_hook f = Atomic.set profile_hook (Some f)
let clear_profile_hook () = Atomic.set profile_hook None

let[@inline] emit pe_wid pe_kind =
  match Atomic.get profile_hook with
  | None -> ()
  | Some f -> f { pe_wid; pe_domain = (Domain.self () :> int); pe_kind }

(* ------------------------------------------------ deterministic chunking *)

(* Chunk-count cap: partial arrays stay tiny and the reduction tree shallow
   while chunks keep growing with n.  Must stay a pure function of n. *)
let max_chunks = 64

let n_chunks ~grain n =
  if n <= 0 then 0 else min max_chunks ((n + grain - 1) / grain)

let chunk_bounds ~n ~n_chunks c = (c * n / n_chunks, (c + 1) * n / n_chunks)

(* ------------------------------------------------------------ the gang *)

type gang = {
  claimed : bool Atomic.t;  (* held by one region's owner for one batch *)
  epoch : int Atomic.t;  (* bumped once per batch *)
  cursor : int Atomic.t;  (* next chunk of the current batch *)
  spawned : int Atomic.t;  (* helpers alive; grown only by the claim owner *)
  lock : Mutex.t;  (* parks helpers between batches; guards [pending] *)
  wake : Condition.t;
  all_acked : Condition.t;
  mutable pending : int;  (* helpers yet to acknowledge the current batch *)
  (* batch slots: written by the owner while every helper is idle,
     published by the [epoch] bump *)
  mutable width : int;  (* domains the batch may run on, owner included *)
  mutable k : int;
  mutable body : int -> unit;
  mutable errs : (exn * Printexc.raw_backtrace) option array;
}

let gang =
  {
    claimed = Atomic.make false;
    epoch = Atomic.make 0;
    cursor = Atomic.make 0;
    spawned = Atomic.make 0;
    lock = Mutex.create ();
    wake = Condition.create ();
    all_acked = Condition.create ();
    pending = 0;
    width = 0;
    k = 0;
    body = ignore;
    errs = [||];
  }

(* ~1–2 µs of [cpu_relax] before parking; the waves of one realization call
   are typically closer together than a futex wakeup costs. *)
let spin_budget = 4096

let drain wid =
  let k = gang.k and body = gang.body and errs = gang.errs in
  let rec go () =
    let c = Atomic.fetch_and_add gang.cursor 1 in
    if c < k then begin
      emit wid (Pe_chunk_begin c);
      (try body c
       with e -> errs.(c) <- Some (e, Printexc.get_raw_backtrace ()));
      emit wid (Pe_chunk_end c);
      go ()
    end
  in
  go ()

(* Wait until the epoch moves past [seen]: spin, then park. *)
let await wid seen =
  let rec spin n =
    if Atomic.get gang.epoch = seen && n > 0 then begin
      Domain.cpu_relax ();
      spin (n - 1)
    end
  in
  if Atomic.get gang.epoch = seen then begin
    emit wid Pe_spin_begin;
    spin spin_budget;
    emit wid Pe_spin_end;
    if Atomic.get gang.epoch = seen then begin
      emit wid Pe_park_begin;
      Mutex.lock gang.lock;
      while Atomic.get gang.epoch = seen do
        Condition.wait gang.wake gang.lock
      done;
      Mutex.unlock gang.lock;
      emit wid Pe_park_end
    end
  end

(* Every helper acknowledges every batch, and only the first [width - 1]
   drain it: the owner rewrites the slots only after the last
   acknowledgement, and a region never runs on more domains than it asked
   for.  Chunk bodies cannot raise into the loop ([drain] catches), and a
   parked helper does not keep the process alive: the runtime exits with
   the main domain. *)
let rec helper wid seen =
  await wid seen;
  let e = Atomic.get gang.epoch in
  if wid < gang.width - 1 then begin
    emit wid Pe_run_begin;
    drain wid;
    emit wid Pe_run_end
  end;
  Mutex.lock gang.lock;
  gang.pending <- gang.pending - 1;
  if gang.pending = 0 then Condition.signal gang.all_acked;
  Mutex.unlock gang.lock;
  helper wid e

(* Spawn helpers until [n] exist (capped at [max_workers]).  Only the claim
   owner calls this, between batches, so a new helper starts at the current
   epoch and waits for the next bump.  A failed spawn gives the claim
   back. *)
let grow n =
  let seen = Atomic.get gang.epoch in
  try
    while Atomic.get gang.spawned < min n max_workers do
      let wid = Atomic.get gang.spawned in
      ignore (Domain.spawn (fun () -> helper wid seen) : unit Domain.t);
      Atomic.incr gang.spawned
    done
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Atomic.set gang.claimed false;
    Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------- parallel region *)

(* First recorded failure in chunk order; every chunk always runs (no
   cancellation), so which exception wins is deterministic. *)
let check_errors errs =
  match Array.find_map Fun.id errs with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let run_chunks ?domains ~n_chunks:k body =
  let d = min (resolve domains) k in
  if d <= 1 || not (Atomic.compare_and_set gang.claimed false true) then
    for c = 0 to k - 1 do
      body c
    done
  else begin
    grow (d - 1);
    let errs = Array.make k None in
    gang.width <- d;
    gang.k <- k;
    gang.body <- body;
    gang.errs <- errs;
    Atomic.set gang.cursor 0;
    Atomic.incr dispatches;
    emit (-1) (Pe_submit (Atomic.get gang.epoch + 1));
    Mutex.lock gang.lock;
    gang.pending <- Atomic.get gang.spawned;
    Atomic.incr gang.epoch;
    Condition.broadcast gang.wake;
    Mutex.unlock gang.lock;
    emit (-1) Pe_run_begin;
    drain (-1);
    emit (-1) Pe_run_end;
    Mutex.lock gang.lock;
    while gang.pending > 0 do
      Condition.wait gang.all_acked gang.lock
    done;
    Mutex.unlock gang.lock;
    gang.body <- ignore;
    gang.errs <- [||];
    Atomic.set gang.claimed false;
    check_errors errs
  end

(* Each chunk writes only its own result slot. *)
let fork2 ?domains f g =
  let a = [| None |] and b = [| None |] in
  run_chunks ?domains ~n_chunks:2 (fun c ->
      if c = 0 then a.(0) <- Some (f ()) else b.(0) <- Some (g ()));
  match (a.(0), b.(0)) with Some a, Some b -> (a, b) | _ -> assert false

(* Spawn (and park) the helpers that [n]-domain regions clamped to the
   hardware will actually use, so domain-spawn cost never lands inside a
   timed or latency-sensitive path.  Deliberately capped at
   [hardware_domains - 1]: on OCaml 5 every live domain — parked or not —
   joins each minor-GC stop-the-world rendezvous, so surplus domains tax
   *sequential* code on small machines (measured ~4x on one core with 7
   parked workers). *)
let prewarm n =
  if Atomic.compare_and_set gang.claimed false true then begin
    grow (min n hardware_domains - 1);
    Atomic.set gang.claimed false
  end

let n_workers_spawned () = Atomic.get gang.spawned
