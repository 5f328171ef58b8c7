(* Unbalanced Hitchcock transportation between cells and a small set of
   sinks (regions / subwindows / transit buffer nodes).

   This is the local partitioning engine of Sections III and IV-B: given n
   cells with sizes and k << n sinks with capacities, find a fractional
   assignment respecting capacities that minimizes mass-weighted movement
   cost, where cost(i, j) may be [infinity] when cell i's movebound does not
   cover sink j.

   The algorithm is Brenner's exact unbalanced-transportation algorithm [4]
   as used by BonnPlace: successive shortest paths over the k-node *sink
   graph*, whose arc (u, v) is weighted by the cheapest per-unit relocation
   delta  min_i { cost(i,v) - cost(i,u) : cell i currently at u },  kept in
   per-arc heaps with lazy invalidation.  The greedy start (every cell at
   its cheapest sink) is optimal for sink prices pi = 0; each step routes
   overload from one sink to the nearest sink with slack by a dense O(k^2)
   Dijkstra on reduced weights  w(u,v) + pi(u) - pi(v)  and then raises the
   prices, so every cell stays at a sink minimizing  cost(i,u) - pi(u)  and
   every sink with slack holds the maximum price.  Those two conditions are
   the optimality certificate [audit] checks.  Moves are fractional, so
   whenever a fractional solution exists the result respects capacities.

   A solve allocates its set-up and its result, nothing per augmenting
   path: the caller passes the costs as one n·k matrix, the arc heaps hold
   cell ids only (a relocation delta is re-read from the matrix),
   fractions live in flat entry arrays until the result lists are built,
   and the search, the price update and the moves are loops over
   preallocated arrays.  Every float stays unboxed: dune's dev
   profile compiles with [-opaque], so a float crossing a function call
   that is not inlined is boxed (DESIGN §9). *)

let eps = 1e-9

type problem = {
  sizes : float array;  (* cell sizes (mass) *)
  capacities : float array;  (* sink capacities *)
  cost : float array;
      (* per-unit cost of cell i at sink j at [i * k + j];
         [infinity] = inadmissible *)
}

type assignment = {
  frac : (int * float) list array;
      (* cell -> [(sink, fraction)] with fractions summing to 1 *)
  load : float array;  (* resulting mass per sink *)
  cost : float;  (* mass-weighted total cost *)
  prices : float array;  (* sink prices: the dual certificate *)
}

let n_cells p = Array.length p.sizes
let n_sinks p = Array.length p.capacities

(* Overload and slack below this much mass count as zero. *)
let mass_tol p =
  let total = ref 0.0 in
  for i = 0 to n_cells p - 1 do
    total := !total +. p.sizes.(i)
  done;
  1e-7 *. Float.max 1.0 !total

let total_cost p frac =
  let k = n_sinks p in
  (* a float-array cell, so the running sum is never boxed *)
  let acc = Array.make 1 0.0 in
  let rec row i = function
    | [] -> ()
    | (j, f) :: rest ->
      acc.(0) <- acc.(0) +. (f *. p.sizes.(i) *. p.cost.((i * k) + j));
      row i rest
  in
  Array.iteri row frac;
  acc.(0)

let loads p frac =
  let load = Array.make (n_sinks p) 0.0 in
  let rec row i = function
    | [] -> ()
    | (j, f) :: rest ->
      load.(j) <- load.(j) +. (f *. p.sizes.(i));
      row i rest
  in
  Array.iteri row frac;
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

(* The fractions during a solve: cell i's (sink, fraction) entries form a
   list threaded through flat arrays, starting at [head.(i)] (-1: none)
   and ordered like the result's lists, the sink set most recently first.
   Entries hold positive fractions only; a removed entry is recycled
   through [free]. *)
type fracs = {
  head : int array;
  mutable e_sink : int array;
  mutable e_frac : float array;
  mutable e_next : int array;
  mutable free : int;  (* recyclable entries, linked through [e_next] *)
  mutable used : int;  (* entries handed out so far *)
}

(* Every cell at its start sink with fraction 1. *)
let fracs_of_start start =
  let n = Array.length start in
  let cap = 8 + (2 * n) in
  let e_sink = Array.make cap 0 and e_frac = Array.make cap 0.0 in
  Array.blit start 0 e_sink 0 n;
  Array.fill e_frac 0 n 1.0;
  { head = Array.init n Fun.id; e_sink; e_frac; e_next = Array.make cap (-1);
    free = -1; used = n }

(* Cell i's entry for sink j, or -1. *)
let find fr i j =
  let e = ref fr.head.(i) in
  while !e >= 0 && fr.e_sink.(!e) <> j do
    e := fr.e_next.(!e)
  done;
  !e

(* Unlink cell i's entry for sink j; returns it, or -1 when absent. *)
let unlink fr i j =
  let prev = ref (-1) and e = ref fr.head.(i) in
  while !e >= 0 && fr.e_sink.(!e) <> j do
    prev := !e;
    e := fr.e_next.(!e)
  done;
  let e = !e in
  if e >= 0 then begin
    if !prev < 0 then fr.head.(i) <- fr.e_next.(e)
    else fr.e_next.(!prev) <- fr.e_next.(e)
  end;
  e

let alloc_entry fr =
  if fr.free >= 0 then begin
    let e = fr.free in
    fr.free <- fr.e_next.(e);
    e
  end
  else begin
    let cap = Array.length fr.e_sink in
    if fr.used = cap then begin
      let grow a fill =
        let a' = Array.make (2 * cap) fill in
        Array.blit a 0 a' 0 cap;
        a'
      in
      fr.e_sink <- grow fr.e_sink 0;
      fr.e_frac <- grow fr.e_frac 0.0;
      fr.e_next <- grow fr.e_next (-1)
    end;
    fr.used <- fr.used + 1;
    fr.used - 1
  end

(* Cell i's fraction at sink j becomes [f]: the entry moves to the front,
   or leaves the list when [f] is not positive.  Inlined, so [f] is never
   boxed. *)
let[@inline] set_frac fr i j f =
  let e = unlink fr i j in
  if f > 0.0 then begin
    let e = if e >= 0 then e else alloc_entry fr in
    fr.e_sink.(e) <- j;
    fr.e_frac.(e) <- f;
    fr.e_next.(e) <- fr.head.(i);
    fr.head.(i) <- e
  end
  else if e >= 0 then begin
    fr.e_next.(e) <- fr.free;
    fr.free <- e
  end

(* The result's list for cell i.  A fraction of exactly 1 shares the
   constant instead of boxing a copy. *)
let frac_list fr i =
  let rec from e =
    if e < 0 then []
    else
      let j = fr.e_sink.(e) and f = fr.e_frac.(e) in
      let entry = if Float.equal f 1.0 then (j, 1.0) else (j, f) in
      entry :: from fr.e_next.(e)
  in
  from fr.head.(i)

(* The per-arc candidate heaps: one binary min-heap of cell ids per sink
   pair (u, v), ordered by the per-unit relocation delta
   cost(i,v) - cost(i,u).  The delta is read from the cost matrix when
   two entries are compared, the same float a stored key would hold, so
   a push writes one int and nothing is boxed.  Sifting compares exactly
   as [Fbp_util.Pq] does, so equal deltas break ties the same way. *)
type arcs = {
  k : int;
  costs : float array;
  heap : int array array;  (* (u * k + v) -> cells, heap-ordered *)
  size : int array;
}

let[@inline] delta a u v i = a.costs.((i * a.k) + v) -. a.costs.((i * a.k) + u)

let rec sift_up a u v (h : int array) at =
  if at > 0 then begin
    let up = (at - 1) / 2 in
    let i = h.(at) and j = h.(up) in
    if delta a u v j > delta a u v i then begin
      h.(at) <- j;
      h.(up) <- i;
      sift_up a u v h up
    end
  end

let rec sift_down a u v (h : int array) size at =
  let l = (2 * at) + 1 and r = (2 * at) + 2 in
  let m = if l < size && delta a u v h.(l) < delta a u v h.(at) then l else at in
  let m = if r < size && delta a u v h.(r) < delta a u v h.(m) then r else m in
  if m <> at then begin
    let i = h.(at) in
    h.(at) <- h.(m);
    h.(m) <- i;
    sift_down a u v h size m
  end

let arc_push a u v i =
  let uv = (u * a.k) + v in
  let size = a.size.(uv) in
  if size = Array.length a.heap.(uv) then begin
    let h = Array.make (max 8 (2 * size)) 0 in
    Array.blit a.heap.(uv) 0 h 0 size;
    a.heap.(uv) <- h
  end;
  a.heap.(uv).(size) <- i;
  a.size.(uv) <- size + 1;
  sift_up a u v a.heap.(uv) size

(* The cell with the smallest delta on arc (u, v), or -1 when empty. *)
let arc_min a u v =
  let uv = (u * a.k) + v in
  if a.size.(uv) = 0 then -1 else a.heap.(uv).(0)

let arc_pop a u v =
  let uv = (u * a.k) + v in
  let size = a.size.(uv) - 1 in
  let h = a.heap.(uv) in
  a.size.(uv) <- size;
  if size > 0 then begin
    h.(0) <- h.(size);
    sift_down a u v h size 0
  end

let solve_impl p =
  let n = n_cells p and k = n_sinks p in
  if k = 0 then invalid_arg "Transport.solve: no sinks";
  if Array.length p.cost <> n * k then
    invalid_arg "Transport.solve: cost matrix is not n * k";
  let cost = p.cost and sizes = p.sizes and caps = p.capacities in
  (* Greedy start: every cell at its independently cheapest admissible sink. *)
  let start = Array.make n (-1) in
  for i = 0 to n - 1 do
    let bestc = ref infinity in
    for j = 0 to k - 1 do
      let c = cost.((i * k) + j) in
      if c < !bestc then begin
        bestc := c;
        start.(i) <- j
      end
    done
  done;
  match Array.find_index (fun j -> j < 0) start with
  | Some i -> Error (Printf.sprintf "cell %d has no admissible sink" i)
  | None ->
    let fr = fracs_of_start start in
    let load = Array.make k 0.0 in
    for i = 0 to n - 1 do
      load.(start.(i)) <- load.(start.(i)) +. sizes.(i)
    done;
    (* Arc (u, v) holds the cells at u that may move to v, dropped lazily
       once they have left u.  Each heap starts with room to spare for its
       initial entries, so arriving cells seldom grow it. *)
    let initial = Array.make (k * k) 0 in
    for i = 0 to n - 1 do
      let u = start.(i) in
      for v = 0 to k - 1 do
        if v <> u && cost.((i * k) + v) < infinity then
          initial.((u * k) + v) <- initial.((u * k) + v) + 1
      done
    done;
    let arcs =
      { k; costs = cost; size = Array.make (k * k) 0;
        heap = Array.map (fun m -> Array.make (m + (m / 2)) 0) initial }
    in
    let enqueue_cell i u =
      for v = 0 to k - 1 do
        if v <> u && cost.((i * k) + v) < infinity then arc_push arcs u v i
      done
    in
    Array.iteri enqueue_cell start;
    let tol = mass_tol p in
    (* Cheapest cell still at u on arc (u, v), or -1. *)
    let rec arc_top u v =
      let i = arc_min arcs u v in
      if i < 0 || find fr i u >= 0 then i
      else begin
        arc_pop arcs u v;
        arc_top u v
      end
    in
    let pi = Array.make k 0.0 in
    let dist = Array.make k infinity and settled = Array.make k false in
    (* the shortest-path tree: predecessor sink and the cell moved on the hop *)
    let pred = Array.make k (-1) and via = Array.make k (-1) in
    (* one augmenting path's sinks, from its end back to its start *)
    let path = Array.make k (-1) in
    (* An overloaded sink that reaches no slack is stuck for good: nothing
       in its reachable set can leave it, so no augmenting path enters. *)
    let stuck = Array.make k false in
    let steps = ref 0 in
    let find_overloaded () =
      let best = ref (-1) and worst = ref tol in
      for j = 0 to k - 1 do
        let o = -.(caps.(j) -. load.(j)) in
        if o > !worst && not stuck.(j) then begin
          worst := o;
          best := j
        end
      done;
      !best
    in
    (* Dijkstra from u0 on reduced weights; returns the first settled sink
       with slack, or -1 when none is reachable. *)
    let shortest_path u0 =
      Array.fill dist 0 k infinity;
      Array.fill settled 0 k false;
      dist.(u0) <- 0.0;
      let found = ref (-2) in
      while !found = -2 do
        let u = ref (-1) in
        for v = 0 to k - 1 do
          if (not settled.(v)) && dist.(v) < infinity && (!u < 0 || dist.(v) < dist.(!u))
          then u := v
        done;
        let u = !u in
        if u < 0 || caps.(u) -. load.(u) > tol then found := u
        else begin
          settled.(u) <- true;
          for v = 0 to k - 1 do
            if not settled.(v) then begin
              let i = arc_top u v in
              if i >= 0 then begin
                let w = delta arcs u v i in
                let d = dist.(u) +. Float.max 0.0 (w +. pi.(u) -. pi.(v)) in
                if d < dist.(v) then begin
                  dist.(v) <- d;
                  pred.(v) <- u;
                  via.(v) <- i
                end
              end
            end
          done
        end
      done;
      !found
    in
    (* Raise the prices by the capped distances, then push the bottleneck
       amount along the path, hop by hop from u0.  Each hop moves the cell
       the search recorded for it, not the current top of its heap: an
       earlier hop may have brought a cheaper cell into the hop's tail.  A
       hop shifts mass of cell i from u to v; a remainder below [eps] of
       the cell goes along so that no fraction is ever rounded away. *)
    let augment u0 t =
      let dt = dist.(t) in
      for v = 0 to k - 1 do
        pi.(v) <- pi.(v) +. Float.min dist.(v) dt
      done;
      let last = ref 0 in
      path.(0) <- t;
      while path.(!last) <> u0 do
        path.(!last + 1) <- pred.(path.(!last));
        incr last
      done;
      let delta = ref (Float.min (-.(caps.(u0) -. load.(u0))) (caps.(t) -. load.(t))) in
      for h = !last downto 1 do
        let i = via.(path.(h - 1)) and u = path.(h) in
        let e = find fr i u in
        let fu = if e >= 0 then fr.e_frac.(e) else 0.0 in
        delta := Float.min !delta (fu *. sizes.(i))
      done;
      for h = !last downto 1 do
        let v = path.(h - 1) and u = path.(h) in
        let i = via.(v) in
        let eu = find fr i u and ev = find fr i v in
        let fu = if eu >= 0 then fr.e_frac.(eu) else 0.0 in
        let fv = if ev >= 0 then fr.e_frac.(ev) else 0.0 in
        let df = Float.min fu (!delta /. sizes.(i)) in
        let df = if fu -. df <= eps then fu else df in
        set_frac fr i u (fu -. df);
        set_frac fr i v (fv +. df);
        load.(u) <- load.(u) -. (df *. sizes.(i));
        load.(v) <- load.(v) +. (df *. sizes.(i));
        if Float.equal fv 0.0 then enqueue_cell i v
      done
    in
    let rec rebalance () =
      let u0 = find_overloaded () in
      if u0 >= 0 then begin
        let t = shortest_path u0 in
        if t < 0 then stuck.(u0) <- true
        else begin
          incr steps;
          augment u0 t
        end;
        rebalance ()
      end
    in
    rebalance ();
    Fbp_obs.Obs.observe "transport.pivots" (float_of_int !steps);
    let frac = Array.init n (frac_list fr) in
    Ok { frac; load = loads p frac; cost = total_cost p frac; prices = pi }

(* Checked invariants of an assignment (sanitizer mode; also exposed for
   tests).  Rows: every cell's fractions are positive, name in-range sinks
   and sum to 1.  Columns: the reported per-sink loads equal the
   recomputed mass sums.  Certificate, in O(n k): every cell sits only at
   sinks minimizing cost(i,u) - price(u) over its admissible sinks, and
   when no sink is overfull every sink with slack holds the maximum
   price. *)
let audit p a =
  let k = n_sinks p in
  let load = Array.make k 0.0 in
  let bad = ref None in
  let report msg = if Option.is_none !bad then bad := Some msg in
  if Array.length p.cost <> n_cells p * k then
    report
      (Printf.sprintf "cost matrix has %d entries for %d cells and %d sinks"
         (Array.length p.cost) (n_cells p) k);
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
  if Array.length a.prices <> k then
    report
      (Printf.sprintf "price vector has %d entries for %d sinks"
         (Array.length a.prices) k)
  else if Option.is_none !bad then begin
    let scale = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 1.0 a.prices in
    Array.iteri
      (fun i fs ->
        let best = ref infinity and row_scale = ref scale in
        for v = 0 to k - 1 do
          let c = p.cost.((i * k) + v) in
          if c < infinity then begin
            best := Float.min !best (c -. a.prices.(v));
            row_scale := Float.max !row_scale (Float.abs c)
          end
        done;
        List.iter
          (fun (u, _) ->
            let r = p.cost.((i * k) + u) -. a.prices.(u) in
            if r > !best +. (1e-6 *. !row_scale) then
              report
                (Printf.sprintf
                   "cell %d at sink %d: reduced cost %.9g above its minimum %.9g" i u r
                   !best))
          fs)
      a.frac;
    let tol = mass_tol p in
    if max_overflow p a <= tol then begin
      let top = Array.fold_left Float.max neg_infinity a.prices in
      Array.iteri
        (fun j pj ->
          if p.capacities.(j) -. a.load.(j) > tol && pj < top -. (1e-6 *. scale) then
            report
              (Printf.sprintf "sink %d has slack but price %.9g below the maximum %.9g"
                 j pj top))
        a.prices
    end
  end;
  match !bad with None -> Ok () | Some msg -> Error msg

(* Deterministically damage a computed assignment: inflate the first
   sink's reported load so the column audit no longer matches the
   fractions.  Models a solver bug for the sanitizer tests. *)
let corrupt_assignment a =
  if Array.length a.load > 0 then a.load.(0) <- a.load.(0) +. 1.0

(* Fault-injection shim: tests can force a domain exception or a
   post-solve assignment corruption (caught by the sanitizer) here to
   exercise the fault matrix. *)
let solve p =
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
        let r = solve_impl p in
        (match r with
        | Ok a ->
          (match fired with
          | Some Fbp_resilience.Inject.Corrupt -> corrupt_assignment a
          | _ -> ());
          Fbp_resilience.Sanitize.check ~site:"transport.solve"
            ~invariant:"balance and sink-price certificate" (fun () -> audit p a)
        | Error _ -> ());
        r)

(* Round a fractional assignment to an integral one: each split cell goes to
   its largest-fraction sink.  A sink can end up overfull by the mass of
   the split cells rounded into it — the slack the paper absorbs in
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
  for i = 0 to n - 1 do
    for j = 0 to k - 1 do
      let c = p.cost.((i * k) + j) in
      if c < infinity then
        arc.(i).(j) <- Graph.add_edge g ~u:i ~v:(n + j) ~cap:p.sizes.(i) ~cost:c
    done
  done;
  let supply = Array.make (n + k) 0.0 in
  Array.iteri (fun i s -> supply.(i) <- s) p.sizes;
  Array.iteri (fun j c -> supply.(n + j) <- -.c) p.capacities;
  match Mcf.solve_stats g ~supply with
  | Infeasible _, _ -> Error "no fractional assignment exists"
  | Feasible { cost }, { Mcf.potentials = pot; _ } ->
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
    (* Sink potentials relative to the artificial root (the last entry).  A
       sink with slack sits at the root's price, except an empty one, which
       may sit above it; no cell is there, so capping it loses nothing. *)
    let prices =
      if Array.length pot = 0 then [||]
      else Array.init k (fun j -> Float.min 0.0 (pot.(n + j) -. pot.(n + k)))
    in
    Ok { frac; load = loads p frac; cost; prices }
