(* Unbalanced Hitchcock transportation between cells and a small set of
   sinks (regions / subwindows / transit buffer nodes).

   This is the local partitioning engine of Sections III and IV-B: given n
   cells with sizes and k << n sinks with capacities, find a fractional
   assignment respecting capacities that minimizes mass-weighted movement
   cost, where cost(i, j) may be [infinity] when cell i's movebound does not
   cover sink j.

   The algorithm follows the structure of Brenner's unbalanced-transportation
   algorithm [4] as used by BonnPlace: start from the independently cheapest
   assignment, then repeatedly route overload along shortest paths in the
   *sink graph*, whose arc (u, v) is weighted by the cheapest per-unit
   relocation delta  min_i { cost(i,v) - cost(i,u) : cell i currently at u }.
   Per-arc candidate heaps with lazy invalidation give the amortized
   efficiency; Bellman-Ford over the k sinks finds the path (k is tiny).
   Moves are fractional, so whenever a fractional solution exists the result
   respects capacities exactly; most cells stay unsplit, matching the
   "almost integral" guarantee the paper inherits from [4]. *)

let eps = 1e-9

type problem = {
  sizes : float array;  (* cell sizes (mass) *)
  capacities : float array;  (* sink capacities *)
  cost : int -> int -> float;  (* per-unit cost; [infinity] = inadmissible *)
}

type assignment = {
  frac : (int * float) list array;
      (* cell -> [(sink, fraction)] with fractions summing to 1 *)
  load : float array;  (* resulting mass per sink *)
  cost : float;  (* mass-weighted total cost *)
  converged : bool;  (* false if the iteration guard tripped *)
}

let n_cells p = Array.length p.sizes
let n_sinks p = Array.length p.capacities

let total_cost p frac =
  let acc = ref 0.0 in
  Array.iteri
    (fun i fs ->
      List.iter (fun (j, f) -> acc := !acc +. (f *. p.sizes.(i) *. p.cost i j)) fs)
    frac;
  !acc

let loads p frac =
  let load = Array.make (n_sinks p) 0.0 in
  Array.iteri
    (fun i fs ->
      List.iter (fun (j, f) -> load.(j) <- load.(j) +. (f *. p.sizes.(i))) fs)
    frac;
  load

let max_overflow p a =
  let worst = ref 0.0 in
  Array.iteri
    (fun j l -> worst := Float.max !worst (l -. p.capacities.(j)))
    a.load;
  !worst

(* Number of cells assigned to more than one sink. *)
let n_fractional a =
  Array.fold_left
    (fun acc fs -> if List.length fs > 1 then acc + 1 else acc)
    0 a.frac

(* Per-cell fraction lists are int-keyed; keep the lookups monomorphic. *)
let frac_at frac i j =
  let rec find = function
    | [] -> 0.0
    | (j', f) :: rest -> if Int.equal j' j then f else find rest
  in
  find frac.(i)

let set_frac frac i j f =
  let rest = List.filter (fun (j', _) -> not (Int.equal j' j)) frac.(i) in
  frac.(i) <- if f > eps then (j, f) :: rest else rest

exception No_admissible_sink of int

let solve_impl ?(max_steps = 0) p =
  let n = n_cells p and k = n_sinks p in
  if k = 0 then invalid_arg "Transport.solve: no sinks";
  let max_steps = if max_steps > 0 then max_steps else 64 * (n + (k * k)) in
  let frac = Array.make n [] in
  let load = Array.make k 0.0 in
  (* Per-(from, to) candidate heaps keyed by the per-unit relocation delta;
     entries are cell ids, validated lazily on pop. *)
  let heaps = Array.init (k * k) (fun _ -> (Fbp_util.Pq.create () : int Fbp_util.Pq.t)) in
  let heap u v = heaps.((u * k) + v) in
  let enqueue_cell i u =
    let cu = p.cost i u in
    for v = 0 to k - 1 do
      if v <> u then begin
        let cv = p.cost i v in
        if cv < infinity then Fbp_util.Pq.push (heap u v) (cv -. cu) i
      end
    done
  in
  (try
     (* Greedy initial assignment: independently cheapest admissible sink. *)
     for i = 0 to n - 1 do
       let best = ref (-1) and bestc = ref infinity in
       for j = 0 to k - 1 do
         let c = p.cost i j in
         if c < !bestc then begin
           bestc := c;
           best := j
         end
       done;
       if !best < 0 then raise (No_admissible_sink i);
       frac.(i) <- [ (!best, 1.0) ];
       load.(!best) <- load.(!best) +. p.sizes.(i);
       enqueue_cell i !best
     done;
     let total_mass = Array.fold_left ( +. ) 0.0 p.sizes in
     let tol = 1e-7 *. Float.max 1.0 total_mass in
     (* Valid cheapest entry of heap (u, v): cell must still sit at u. *)
     let rec arc_weight u v =
       match Fbp_util.Pq.peek (heap u v) with
       | None -> None
       | Some (key, i) ->
         if frac_at frac i u > eps && Float.abs (key -. (p.cost i v -. p.cost i u)) <= 1e-9
         then Some key
         else begin
           ignore (Fbp_util.Pq.pop (heap u v));
           arc_weight u v
         end
     in
     (* Move up to [need] mass from u to v, cheapest cells first.  Returns the
        mass actually moved (= need unless u runs out of movable mass). *)
     let move_mass u v need =
       let moved = ref 0.0 in
       while !moved < need -. eps &&
             (match Fbp_util.Pq.peek (heap u v) with Some _ -> true | None -> false) do
         match Fbp_util.Pq.pop (heap u v) with
         | None -> ()
         | Some (key, i) ->
           let fu = frac_at frac i u in
           if fu > eps && Float.abs (key -. (p.cost i v -. p.cost i u)) <= 1e-9 then begin
             let available = fu *. p.sizes.(i) in
             let take = Float.min available (need -. !moved) in
             let df = take /. p.sizes.(i) in
             set_frac frac i u (fu -. df);
             set_frac frac i v (frac_at frac i v +. df);
             load.(u) <- load.(u) -. take;
             load.(v) <- load.(v) +. take;
             moved := !moved +. take;
             enqueue_cell i v;
             (* Remainder still at u keeps its (already popped) candidacy. *)
             if frac_at frac i u > eps then Fbp_util.Pq.push (heap u v) key i
           end
       done;
       !moved
     in
     (* Layered Bellman-Ford: dist.(r).(v) is the cheapest *walk* of at most
        [r] arcs from the overloaded sink to [v].  Relocation deltas can be
        negative once cells are displaced off their cheapest sink, so the
        sink graph may contain negative cycles; a plain predecessor array
        would then cycle during path reconstruction.  Layer-indexed
        predecessors make the walk-back strictly decrease the layer, which
        guarantees termination (moving mass along a walk that revisits a
        node is operationally fine — each hop is an independent shift). *)
     let layers = k in
     let dist = Array.make_matrix (layers + 1) k infinity in
     let pred = Array.make_matrix (layers + 1) k (-1) in
     (* pred = -1: unreached; -2: carried from previous layer; >= 0: via arc *)
     let steps = ref 0 in
     let converged = ref true in
     let find_overloaded () =
       let best = ref (-1) and worst = ref tol in
       for j = 0 to k - 1 do
         let o = load.(j) -. p.capacities.(j) in
         if o > !worst then begin
           worst := o;
           best := j
         end
       done;
       !best
     in
     let rec rebalance () =
       let u0 = find_overloaded () in
       if u0 >= 0 then begin
         incr steps;
         if !steps > max_steps then converged := false
         else begin
           for r = 0 to layers do
             Array.fill dist.(r) 0 k infinity;
             Array.fill pred.(r) 0 k (-1)
           done;
           dist.(0).(u0) <- 0.0;
           for r = 1 to layers do
             for v = 0 to k - 1 do
               if dist.(r - 1).(v) < infinity then begin
                 dist.(r).(v) <- dist.(r - 1).(v);
                 pred.(r).(v) <- -2
               end
             done;
             for u = 0 to k - 1 do
               if dist.(r - 1).(u) < infinity then
                 for v = 0 to k - 1 do
                   if v <> u then
                     match arc_weight u v with
                     | Some w when dist.(r - 1).(u) +. w < dist.(r).(v) -. 1e-12 ->
                       dist.(r).(v) <- dist.(r - 1).(u) +. w;
                       pred.(r).(v) <- u
                     | _ -> ()
                 done
             done
           done;
           (* Cheapest reachable sink with slack (at the deepest layer). *)
           let t = ref (-1) and bestd = ref infinity in
           for j = 0 to k - 1 do
             if p.capacities.(j) -. load.(j) > tol && dist.(layers).(j) < !bestd then begin
               bestd := dist.(layers).(j);
               t := j
             end
           done;
           if !t < 0 then converged := false
           else begin
             (* Walk back through the layers, collecting arcs to shift. *)
             let path = ref [] in
             let v = ref !t and r = ref layers in
             while !r > 0 do
               (match pred.(!r).(!v) with
                | -2 -> ()
                | -1 -> assert false
                | u ->
                  path := (u, !v) :: !path;
                  v := u);
               decr r
             done;
             assert (!v = u0);
             let delta =
               Float.min (load.(u0) -. p.capacities.(u0)) (p.capacities.(!t) -. load.(!t))
             in
             let remaining = ref delta in
             List.iter
               (fun (a, b) ->
                 remaining := if !remaining > eps then move_mass a b !remaining else 0.0)
               !path;
             (* [remaining] is now the mass that made it all the way to [t].
                Zero progress means some heap went stale-empty mid-path: stop
                rather than spin (the caller sees [converged = false]). *)
             if !remaining > eps then rebalance () else converged := false
           end
         end
       end
     in
     rebalance ();
     (* Improvement phase: the rebalancing stops at the first feasible
        solution, which can leave negative cycles in the sink graph (cost
        can still drop without changing loads).  Cancel them: layered
        multi-source Bellman-Ford detects a cycle, then the cheapest movable
        cells shift one hop each around it.  Every cancellation strictly
        decreases cost.

        The budget must stay linear in [k]: each iteration runs a layered
        Bellman-Ford over the k x k sink graph whose arc weights pop lazy
        heaps that *grow* with every cancellation, so a quadratic budget
        (the previous 8k^2) turns degenerate instances — many equal-cost
        cells piled on the same sinks, exactly what a dense QP placement
        feeds the flow legalizer — into multi-hour stalls on instances as
        small as 500 cells x 62 segments.  Together with the minimum-gain
        cutoff in [cancel_cycle] this phase is a polish pass, not a
        correctness requirement: feasibility is already established. *)
     let improve_budget = ref ((4 * k) + 64) in
     let find_negative_cycle () =
       for r = 0 to layers do
         Array.fill dist.(r) 0 k infinity;
         Array.fill pred.(r) 0 k (-1)
       done;
       Array.fill dist.(0) 0 k 0.0;
       for r = 1 to layers do
         for v = 0 to k - 1 do
           if dist.(r - 1).(v) < infinity then begin
             dist.(r).(v) <- dist.(r - 1).(v);
             pred.(r).(v) <- -2
           end
         done;
         for u = 0 to k - 1 do
           for v = 0 to k - 1 do
             if v <> u then
               match arc_weight u v with
               | Some w when dist.(r - 1).(u) +. w < dist.(r).(v) -. 1e-9 ->
                 dist.(r).(v) <- dist.(r - 1).(u) +. w;
                 pred.(r).(v) <- u
               | _ -> ()
           done
         done
       done;
       (* A strict improvement at the deepest layer certifies a negative
          cycle on the walk; walking the layered preds back visits k+1 node
          instances, so some node repeats — that loop is the cycle. *)
       let witness = ref (-1) in
       for v = 0 to k - 1 do
         if dist.(layers).(v) < dist.(layers - 1).(v) -. 1e-9 && !witness < 0 then
           witness := v
       done;
       if !witness < 0 then None
       else begin
         let walk = Array.make (layers + 1) (-1) in
         let v = ref !witness in
         walk.(layers) <- !v;
         let r = ref layers in
         while !r > 0 do
           (match pred.(!r).(!v) with
            | -2 -> ()
            | -1 -> v := -1
            | u -> v := u);
           decr r;
           walk.(!r) <- !v
         done;
         (* find a repeated node in walk.(0..layers) *)
         let cycle = ref None in
         for i = 0 to layers do
           for j = i + 1 to layers do
             if !cycle = None && walk.(i) >= 0 && walk.(i) = walk.(j) then begin
               (* arcs between layers i..j-1, skipping carries (same node) *)
               let arcs = ref [] in
               for t = j downto i + 1 do
                 if walk.(t) <> walk.(t - 1) && walk.(t - 1) >= 0 then
                   arcs := (walk.(t - 1), walk.(t)) :: !arcs
               done;
               if !arcs <> [] then cycle := Some !arcs
             end
           done
         done;
         !cycle
       end
     in
     let cancel_cycle arcs =
       (* Verify the cycle is still strictly improving, then shift the
          largest mass supported by every arc's cheapest cell. *)
       let total_w = ref 0.0 and amount = ref infinity in
       let tops =
         List.filter_map
           (fun (u, v) ->
             match arc_weight u v with
             | None -> None
             | Some w ->
               (match Fbp_util.Pq.peek (heap u v) with
                | Some (_, i) ->
                  total_w := !total_w +. w;
                  amount := Float.min !amount (frac_at frac i u *. p.sizes.(i));
                  Some (u, v)
                | None -> None))
           arcs
       in
       (* A cycle that is negative only by an epsilon, or that can shift
          only an epsilon of mass, "improves" the cost by noise while still
          burning a full Bellman-Ford per round and growing every heap it
          touches; treat it as converged instead of cancelling it. *)
       let gain_tol = 1e-7 *. Float.max 1.0 total_mass in
       if
         List.length tops <> List.length arcs
         || !total_w >= -1e-9
         || !amount <= eps
         || -.(!total_w *. !amount) <= gain_tol
       then false
       else begin
         List.iter (fun (u, v) -> ignore (move_mass u v !amount)) tops;
         true
       end
     in
     let rec improve () =
       if !improve_budget > 0 then begin
         decr improve_budget;
         match find_negative_cycle () with
         | None -> ()
         | Some arcs -> if cancel_cycle arcs then improve ()
       end
     in
     improve ();
     Fbp_obs.Obs.observe "transport.pivots" (float_of_int !steps);
     Ok { frac; load; cost = total_cost p frac; converged = !converged }
   with No_admissible_sink i ->
     Error (Printf.sprintf "cell %d has no admissible sink" i))

(* Checked invariants of an assignment (sanitizer mode; also exposed for
   tests).  Rows: every cell's fractions are positive, name in-range sinks
   and sum to 1.  Columns: the reported per-sink loads equal the
   recomputed mass sums. *)
let audit p a =
  let k = n_sinks p in
  let load = Array.make k 0.0 in
  let bad = ref None in
  let report msg = if Option.is_none !bad then bad := Some msg in
  Array.iteri
    (fun i fs ->
      let sum = ref 0.0 in
      List.iter
        (fun (j, f) ->
          if j < 0 || j >= k then
            report (Printf.sprintf "cell %d: sink %d out of range" i j)
          else begin
            if f <= 0.0 || f > 1.0 +. 1e-9 then
              report (Printf.sprintf "cell %d: fraction %.9g outside (0, 1]" i f);
            load.(j) <- load.(j) +. (f *. p.sizes.(i));
            sum := !sum +. f
          end)
        fs;
      if Float.abs (!sum -. 1.0) > 1e-6 then
        report (Printf.sprintf "cell %d: fractions sum to %.9g, not 1" i !sum))
    a.frac;
  if Array.length a.load <> k then
    report
      (Printf.sprintf "load vector has %d entries for %d sinks"
         (Array.length a.load) k)
  else
    Array.iteri
      (fun j l ->
        let tol = 1e-6 *. Float.max 1.0 (Float.abs l) in
        if Float.abs (l -. a.load.(j)) > tol then
          report
            (Printf.sprintf
               "sink %d: reported load %.9g but fractions carry %.9g" j
               a.load.(j) l))
      load;
  match !bad with None -> Ok () | Some msg -> Error msg

(* Deterministically damage a computed assignment: inflate the first
   sink's reported load so the column audit no longer matches the
   fractions.  Models a solver bug for the sanitizer tests. *)
let corrupt_assignment a =
  if Array.length a.load > 0 then a.load.(0) <- a.load.(0) +. 1.0

(* Fault-injection shim: tests can force a domain exception or a
   post-solve assignment corruption (caught by the sanitizer) here to
   exercise the fault matrix. *)
let solve ?max_steps p =
  Fbp_obs.Obs.count "transport.solves";
  Fbp_obs.Obs.span "transport.solve"
    ~args:(fun () ->
      [ ("cells", string_of_int (n_cells p)); ("sinks", string_of_int (n_sinks p)) ])
    (fun () ->
      match Fbp_resilience.Inject.fire Fbp_resilience.Inject.Transport with
      | Some (Fbp_resilience.Inject.Raise msg) ->
        (* fbp-lint: allow error-taxonomy — fires only when the fuzz harness arms the registry, which converts it; CLI runs never arm *)
        raise (Fbp_resilience.Inject.Injected msg)
      | fired ->
        let r = solve_impl ?max_steps p in
        (match r with
        | Ok a ->
          (match fired with
          | Some Fbp_resilience.Inject.Corrupt -> corrupt_assignment a
          | _ -> ());
          Fbp_resilience.Sanitize.check ~site:"transport.solve"
            ~invariant:"row/column balance" (fun () -> audit p a)
        | Error _ -> ());
        r)

(* Round a fractional assignment to an integral one: each split cell goes to
   its largest-fraction sink.  Sinks may end up overfull by strictly less
   than one cell each — the "almost integral" slack the paper absorbs in
   legalization. *)
let round_integral a =
  Array.map
    (fun fs ->
      match fs with
      | [] -> -1
      | (j0, f0) :: rest ->
        let j, _ =
          List.fold_left (fun ((_, bf) as acc) (j, f) -> if f > bf then (j, f) else acc)
            (j0, f0) rest
        in
        j)
    a.frac

(* Exact reference solver via min-cost flow with one node per cell; only for
   small instances (tests, ablations). *)
let solve_exact p =
  let n = n_cells p and k = n_sinks p in
  let g = Graph.create (n + k) in
  let arc = Array.make_matrix n k (-1) in
  let max_cost = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to k - 1 do
      let c = p.cost i j in
      if c < infinity then max_cost := Float.max !max_cost c
    done
  done;
  for i = 0 to n - 1 do
    for j = 0 to k - 1 do
      let c = p.cost i j in
      if c < infinity then
        arc.(i).(j) <- Graph.add_edge g ~u:i ~v:(n + j) ~cap:p.sizes.(i) ~cost:c
    done
  done;
  let supply = Array.make (n + k) 0.0 in
  Array.iteri (fun i s -> supply.(i) <- s) p.sizes;
  Array.iteri (fun j c -> supply.(n + j) <- -.c) p.capacities;
  match Mcf.solve g ~supply with
  | Infeasible _ -> Error "no fractional assignment exists"
  | Feasible { cost } ->
    let frac = Array.make n [] in
    for i = 0 to n - 1 do
      for j = 0 to k - 1 do
        let a = arc.(i).(j) in
        if a >= 0 then begin
          let f = Graph.flow g a /. p.sizes.(i) in
          if f > eps then frac.(i) <- (j, f) :: frac.(i)
        end
      done
    done;
    Ok { frac; load = loads p frac; cost; converged = true }
