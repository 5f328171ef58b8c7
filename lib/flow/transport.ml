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

   The set-up and the result live in a grow-only workspace, and nothing
   is allocated per augmenting path: the caller passes the costs as one
   n·k matrix, the arc heaps hold cell ids only (a relocation delta is
   re-read from the matrix), the fractions are per-cell entry chains in
   flat arrays and stay the result, and the search, the price update and
   the moves are loops over the workspace's arrays.  Every float stays
   unboxed: dune's dev profile compiles with [-opaque], so a float
   crossing a function call that is not inlined is boxed (DESIGN §9). *)

let eps = 1e-9

(* n cells and k sinks.  The arrays may be longer than n, k and n·k (a
   caller's grow-only buffers); only those first entries are read. *)
type problem = {
  n : int;
  k : int;
  sizes : float array;  (* cell sizes (mass) *)
  capacities : float array;  (* sink capacities *)
  cost : float array;
      (* per-unit cost of cell i at sink j at [i * k + j];
         [infinity] = inadmissible *)
}

(* Cell i's (sink, fraction) entries form a chain threaded through flat
   arrays, starting at [head.(i)] (-1: none), the sink set most recently
   first.  Entries hold positive fractions only.  The arrays may be longer
   than the counts need (a workspace's). *)
type assignment = {
  n : int;
  k : int;
  head : int array;
  sink : int array;
  frac : float array;
  next : int array;
  load : float array;  (* resulting mass per sink *)
  cost : float;  (* mass-weighted total cost *)
  prices : float array;  (* sink prices: the dual certificate *)
}

(* Everything a solve sets up, grown on demand and never shrunk: the
   fraction chains under construction (a removed entry is recycled
   through [free]), the loads, the k^2 arc heaps and their sizes, and the
   Dijkstra arrays and prices.  The last solve's assignment is a view of
   the chains, [load] and [pi]. *)
type workspace = {
  mutable head : int array;
  mutable e_sink : int array;
  mutable e_frac : float array;
  mutable e_next : int array;
  mutable free : int;  (* recyclable entries, linked through [e_next] *)
  mutable used : int;  (* entries handed out so far *)
  mutable load : float array;
  mutable initial : int array;  (* (u * k + v) -> cells at u admissible at v *)
  mutable heap : int array array;  (* (u * k + v) -> cells, heap-ordered *)
  mutable size : int array;
  mutable pi : float array;
  mutable dist : float array;
  mutable settled : bool array;
  mutable pred : int array;
  mutable via : int array;
  mutable path : int array;
  mutable stuck : bool array;
}

let create_workspace () =
  { head = [||]; e_sink = [||]; e_frac = [||]; e_next = [||];
    free = -1; used = 0; load = [||]; initial = [||]; heap = [||];
    size = [||]; pi = [||]; dist = [||]; settled = [||]; pred = [||];
    via = [||]; path = [||]; stuck = [||] }

(* [a] with room for [m] entries; contents are not kept. *)
let fit a m fill =
  if Array.length a >= m then a else Array.make (max m (2 * Array.length a)) fill

(* Room for n cells and k sinks. *)
let reserve (ws : workspace) ~n ~k =
  ws.head <- fit ws.head n 0;
  let entries = 8 + (2 * n) in
  ws.e_sink <- fit ws.e_sink entries 0;
  ws.e_frac <- fit ws.e_frac entries 0.0;
  ws.e_next <- fit ws.e_next entries 0;
  ws.load <- fit ws.load k 0.0;
  let kk = k * k in
  ws.initial <- fit ws.initial kk 0;
  ws.size <- fit ws.size kk 0;
  if Array.length ws.heap < kk then begin
    (* the buffers move along: any heap may reuse any buffer *)
    let heap = Array.make (max kk (2 * Array.length ws.heap)) [||] in
    Array.blit ws.heap 0 heap 0 (Array.length ws.heap);
    ws.heap <- heap
  end;
  ws.pi <- fit ws.pi k 0.0;
  ws.dist <- fit ws.dist k 0.0;
  ws.settled <- fit ws.settled k false;
  ws.pred <- fit ws.pred k 0;
  ws.via <- fit ws.via k 0;
  ws.path <- fit ws.path k 0;
  ws.stuck <- fit ws.stuck k false

let n_cells (p : problem) = p.n
let n_sinks (p : problem) = p.k

(* Why [p]'s arrays cannot hold its counts, if they cannot. *)
let short (p : problem) =
  if p.n < 0 || p.k < 0 then
    Some (Printf.sprintf "negative counts (%d cells, %d sinks)" p.n p.k)
  else if Array.length p.sizes < p.n then
    Some (Printf.sprintf "%d sizes for %d cells" (Array.length p.sizes) p.n)
  else if Array.length p.capacities < p.k then
    Some
      (Printf.sprintf "%d capacities for %d sinks" (Array.length p.capacities) p.k)
  else if Array.length p.cost < p.n * p.k then
    Some
      (Printf.sprintf "cost matrix has %d entries for %d cells and %d sinks"
         (Array.length p.cost) p.n p.k)
  else None

(* Overload and slack below this much mass count as zero. *)
let mass_tol p =
  let total = ref 0.0 in
  for i = 0 to n_cells p - 1 do
    total := !total +. p.sizes.(i)
  done;
  1e-7 *. Float.max 1.0 !total

let total_cost p (a : assignment) =
  let k = n_sinks p in
  let acc = ref 0.0 in
  for i = 0 to a.n - 1 do
    let e = ref a.head.(i) in
    while !e >= 0 do
      let j = a.sink.(!e) in
      acc := !acc +. (a.frac.(!e) *. p.sizes.(i) *. p.cost.((i * k) + j));
      e := a.next.(!e)
    done
  done;
  !acc

(* The per-sink masses of [a]'s chains, written into [load]. *)
let loads_into p (a : assignment) load =
  Array.fill load 0 (n_sinks p) 0.0;
  for i = 0 to a.n - 1 do
    let e = ref a.head.(i) in
    while !e >= 0 do
      let j = a.sink.(!e) in
      load.(j) <- load.(j) +. (a.frac.(!e) *. p.sizes.(i));
      e := a.next.(!e)
    done
  done

let max_overflow p (a : assignment) =
  let worst = ref 0.0 in
  for j = 0 to n_sinks p - 1 do
    worst := Float.max !worst (a.load.(j) -. p.capacities.(j))
  done;
  !worst

let fractions (a : assignment) i =
  let rec from e = if e < 0 then [] else (a.sink.(e), a.frac.(e)) :: from a.next.(e) in
  from a.head.(i)

(* Number of cells assigned to more than one sink. *)
let n_fractional (a : assignment) =
  let count = ref 0 in
  for i = 0 to a.n - 1 do
    let e = a.head.(i) in
    if e >= 0 && a.next.(e) >= 0 then incr count
  done;
  !count

(* The chains under construction live in the workspace.  Cell i's entry
   for sink j, or -1. *)
let find (ws : workspace) i j =
  let e = ref ws.head.(i) in
  while !e >= 0 && ws.e_sink.(!e) <> j do
    e := ws.e_next.(!e)
  done;
  !e

(* Unlink cell i's entry for sink j; returns it, or -1 when absent. *)
let unlink (ws : workspace) i j =
  let prev = ref (-1) and e = ref ws.head.(i) in
  while !e >= 0 && ws.e_sink.(!e) <> j do
    prev := !e;
    e := ws.e_next.(!e)
  done;
  let e = !e in
  if e >= 0 then begin
    if !prev < 0 then ws.head.(i) <- ws.e_next.(e)
    else ws.e_next.(!prev) <- ws.e_next.(e)
  end;
  e

let alloc_entry (ws : workspace) =
  if ws.free >= 0 then begin
    let e = ws.free in
    ws.free <- ws.e_next.(e);
    e
  end
  else begin
    let cap = Array.length ws.e_sink in
    if ws.used = cap then begin
      let grow a fill =
        let a' = Array.make (2 * cap) fill in
        Array.blit a 0 a' 0 cap;
        a'
      in
      ws.e_sink <- grow ws.e_sink 0;
      ws.e_frac <- grow ws.e_frac 0.0;
      ws.e_next <- grow ws.e_next (-1)
    end;
    ws.used <- ws.used + 1;
    ws.used - 1
  end

(* Cell i's fraction at sink j becomes [f]: the entry moves to the front,
   or leaves the chain when [f] is not positive.  Inlined, so [f] is never
   boxed. *)
let[@inline] set_frac (ws : workspace) i j f =
  let e = unlink ws i j in
  if f > 0.0 then begin
    let e = if e >= 0 then e else alloc_entry ws in
    ws.e_sink.(e) <- j;
    ws.e_frac.(e) <- f;
    ws.e_next.(e) <- ws.head.(i);
    ws.head.(i) <- e
  end
  else if e >= 0 then begin
    ws.e_next.(e) <- ws.free;
    ws.free <- e
  end

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

let solve_impl ws p =
  let n = n_cells p and k = n_sinks p in
  (match short p with
   | Some why -> invalid_arg ("Transport.solve: " ^ why)
   | None -> ());
  if k = 0 then invalid_arg "Transport.solve: no sinks";
  let cost = p.cost and sizes = p.sizes and caps = p.capacities in
  reserve ws ~n ~k;
  (* Greedy start: every cell at its independently cheapest admissible
     sink, written as the sink of the cell's one entry, entry i; the
     set-up below reads it there before any entry moves. *)
  let start = ws.e_sink in
  let unplaced = ref (-1) in
  for i = n - 1 downto 0 do
    let bestc = ref infinity in
    start.(i) <- -1;
    for j = 0 to k - 1 do
      let c = cost.((i * k) + j) in
      if c < !bestc then begin
        bestc := c;
        start.(i) <- j
      end
    done;
    if start.(i) < 0 then unplaced := i
  done;
  if !unplaced >= 0 then
    Error (Printf.sprintf "cell %d has no admissible sink" !unplaced)
  else begin
    (* every cell at its start sink with fraction 1 *)
    for i = 0 to n - 1 do
      ws.head.(i) <- i;
      ws.e_frac.(i) <- 1.0;
      ws.e_next.(i) <- -1
    done;
    ws.free <- -1;
    ws.used <- n;
    let load = ws.load in
    Array.fill load 0 k 0.0;
    for i = 0 to n - 1 do
      load.(start.(i)) <- load.(start.(i)) +. sizes.(i)
    done;
    (* Arc (u, v) holds the cells at u that may move to v, dropped lazily
       once they have left u.  Each heap starts with room to spare for its
       initial entries, so arriving cells seldom grow it. *)
    let kk = k * k in
    let initial = ws.initial in
    Array.fill initial 0 kk 0;
    for i = 0 to n - 1 do
      let u = start.(i) in
      for v = 0 to k - 1 do
        if v <> u && cost.((i * k) + v) < infinity then
          initial.((u * k) + v) <- initial.((u * k) + v) + 1
      done
    done;
    let heap = ws.heap in
    for uv = 0 to kk - 1 do
      let m = initial.(uv) in
      if Array.length heap.(uv) < m then heap.(uv) <- Array.make (m + (m / 2)) 0
    done;
    Array.fill ws.size 0 kk 0;
    let arcs = { k; costs = cost; size = ws.size; heap } in
    let enqueue_cell i u =
      for v = 0 to k - 1 do
        if v <> u && cost.((i * k) + v) < infinity then arc_push arcs u v i
      done
    in
    for i = 0 to n - 1 do
      enqueue_cell i start.(i)
    done;
    let tol = mass_tol p in
    (* Cheapest cell still at u on arc (u, v), or -1. *)
    let rec arc_top u v =
      let i = arc_min arcs u v in
      if i < 0 || find ws i u >= 0 then i
      else begin
        arc_pop arcs u v;
        arc_top u v
      end
    in
    let pi = ws.pi and dist = ws.dist and settled = ws.settled in
    Array.fill pi 0 k 0.0;
    (* the shortest-path tree: predecessor sink and the cell moved on the hop *)
    let pred = ws.pred and via = ws.via in
    Array.fill pred 0 k (-1);
    Array.fill via 0 k (-1);
    (* one augmenting path's sinks, from its end back to its start *)
    let path = ws.path in
    (* An overloaded sink that reaches no slack is stuck for good: nothing
       in its reachable set can leave it, so no augmenting path enters. *)
    let stuck = ws.stuck in
    Array.fill stuck 0 k false;
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
        let e = find ws i u in
        let fu = if e >= 0 then ws.e_frac.(e) else 0.0 in
        delta := Float.min !delta (fu *. sizes.(i))
      done;
      for h = !last downto 1 do
        let v = path.(h - 1) and u = path.(h) in
        let i = via.(v) in
        let eu = find ws i u and ev = find ws i v in
        let fu = if eu >= 0 then ws.e_frac.(eu) else 0.0 in
        let fv = if ev >= 0 then ws.e_frac.(ev) else 0.0 in
        let df = Float.min fu (!delta /. sizes.(i)) in
        let df = if fu -. df <= eps then fu else df in
        set_frac ws i u (fu -. df);
        set_frac ws i v (fv +. df);
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
    let a =
      { n; k; head = ws.head; sink = ws.e_sink; frac = ws.e_frac;
        next = ws.e_next; load; cost = 0.0; prices = pi }
    in
    loads_into p a load;
    Ok { a with cost = total_cost p a }
  end

(* Checked invariants of an assignment (sanitizer mode; also exposed for
   tests).  Rows: every cell's chain ends, and its fractions are positive,
   name in-range sinks and sum to 1.  Columns: the reported per-sink loads
   equal the recomputed mass sums.  Certificate, in O(n k): every cell
   sits only at sinks minimizing cost(i,u) - price(u) over its admissible
   sinks, and when no sink is overfull every sink with slack holds the
   maximum price. *)
let audit p (a : assignment) =
  let n = n_cells p and k = n_sinks p in
  let bad = ref None in
  let report msg = if Option.is_none !bad then bad := Some msg in
  (match short p with Some why -> report why | None -> ());
  let k = max 0 k in
  let load = Array.make k 0.0 in
  if Option.is_some !bad then ()
  else if a.n <> n || a.k <> k || Array.length a.head < n then
    report
      (Printf.sprintf
         "assignment of %d cells (%d heads) and %d sinks for %d cells and %d sinks"
         a.n (Array.length a.head) a.k n k)
  else begin
    let entries =
      min (Array.length a.sink) (min (Array.length a.frac) (Array.length a.next))
    in
    for i = 0 to n - 1 do
      let sum = ref 0.0 and e = ref a.head.(i) and hops = ref 0 in
      while !e >= 0 do
        if !e >= entries || !hops >= entries then begin
          report (Printf.sprintf "cell %d: entry chain leaves the entries" i);
          e := -1
        end
        else begin
          let j = a.sink.(!e) and f = a.frac.(!e) in
          if j < 0 || j >= k then
            report (Printf.sprintf "cell %d: sink %d out of range" i j)
          else begin
            if f <= 0.0 || f > 1.0 +. 1e-9 then
              report (Printf.sprintf "cell %d: fraction %.9g outside (0, 1]" i f);
            load.(j) <- load.(j) +. (f *. p.sizes.(i));
            sum := !sum +. f
          end;
          incr hops;
          e := a.next.(!e)
        end
      done;
      if Float.abs (!sum -. 1.0) > 1e-6 then
        report (Printf.sprintf "cell %d: fractions sum to %.9g, not 1" i !sum)
    done
  end;
  if Array.length a.load < k then
    report
      (Printf.sprintf "load vector has %d entries for %d sinks"
         (Array.length a.load) k)
  else
    for j = 0 to k - 1 do
      let l = load.(j) in
      let tol = 1e-6 *. Float.max 1.0 (Float.abs l) in
      if Float.abs (l -. a.load.(j)) > tol then
        report
          (Printf.sprintf
             "sink %d: reported load %.9g but fractions carry %.9g" j
             a.load.(j) l)
    done;
  if Array.length a.prices < k then
    report
      (Printf.sprintf "price vector has %d entries for %d sinks"
         (Array.length a.prices) k)
  else if Option.is_none !bad then begin
    let scale = ref 1.0 in
    for j = 0 to k - 1 do
      scale := Float.max !scale (Float.abs a.prices.(j))
    done;
    let scale = !scale in
    for i = 0 to n - 1 do
      let best = ref infinity and row_scale = ref scale in
      for v = 0 to k - 1 do
        let c = p.cost.((i * k) + v) in
        if c < infinity then begin
          best := Float.min !best (c -. a.prices.(v));
          row_scale := Float.max !row_scale (Float.abs c)
        end
      done;
      let e = ref a.head.(i) in
      while !e >= 0 do
        let u = a.sink.(!e) in
        let r = p.cost.((i * k) + u) -. a.prices.(u) in
        if r > !best +. (1e-6 *. !row_scale) then
          report
            (Printf.sprintf
               "cell %d at sink %d: reduced cost %.9g above its minimum %.9g" i u r
               !best);
        e := a.next.(!e)
      done
    done;
    let tol = mass_tol p in
    if max_overflow p a <= tol then begin
      let top = ref neg_infinity in
      for j = 0 to k - 1 do
        top := Float.max !top a.prices.(j)
      done;
      for j = 0 to k - 1 do
        let pj = a.prices.(j) in
        if p.capacities.(j) -. a.load.(j) > tol && pj < !top -. (1e-6 *. scale) then
          report
            (Printf.sprintf "sink %d has slack but price %.9g below the maximum %.9g"
               j pj !top)
      done
    end
  end;
  match !bad with None -> Ok () | Some msg -> Error msg

(* Deterministically damage a computed assignment: inflate the first
   sink's reported load so the column audit no longer matches the
   fractions.  Models a solver bug for the sanitizer tests. *)
let corrupt_assignment (a : assignment) =
  if a.k > 0 then a.load.(0) <- a.load.(0) +. 1.0

(* Fault-injection shim, polled once per solve: tests can force a domain
   exception or a post-solve assignment corruption (caught by the
   sanitizer) here to exercise the fault matrix.  [true] means the
   assignment must be corrupted. *)
let draw_fault () =
  match Fbp_resilience.Inject.fire Fbp_resilience.Inject.Transport with
  | Some (Fbp_resilience.Inject.Raise msg) ->
    (* fbp-lint: allow error-taxonomy — fires only when the fuzz harness arms the registry, which converts it; CLI runs never arm *)
    raise (Fbp_resilience.Inject.Injected msg)
  | Some Fbp_resilience.Inject.Corrupt -> true
  | _ -> false

(* The solve and its audit, the fault drawn: [corrupt] tampers the
   result before the sanitizer sees it. *)
let run ?workspace ~corrupt p =
  let ws = match workspace with Some ws -> ws | None -> create_workspace () in
  let r = solve_impl ws p in
  (match r with
  | Ok a ->
    if corrupt then corrupt_assignment a;
    Fbp_resilience.Sanitize.check ~site:"transport.solve"
      ~invariant:"balance and sink-price certificate" (fun () -> audit p a)
  | Error _ -> ());
  r

let observed p f =
  Fbp_obs.Obs.count "transport.solves";
  Fbp_obs.Obs.span "transport.solve"
    ~args:(fun () ->
      [ ("cells", string_of_int (n_cells p)); ("sinks", string_of_int (n_sinks p)) ])
    f

let solve ?workspace p =
  observed p (fun () -> run ?workspace ~corrupt:(draw_fault ()) p)

let solve_drawn ?workspace ~corrupt p =
  observed p (fun () -> run ?workspace ~corrupt p)

(* Round a fractional assignment to an integral one: each split cell goes to
   its largest-fraction sink, the first in chain order on a tie.  A sink
   can end up overfull by the mass of the split cells rounded into it —
   the slack the paper absorbs in legalization. *)
let choice (a : assignment) i =
  let e = a.head.(i) in
  if e < 0 then -1
  else begin
    let best = ref a.sink.(e) and bf = ref a.frac.(e) and e = ref a.next.(e) in
    while !e >= 0 do
      if a.frac.(!e) > !bf then begin
        best := a.sink.(!e);
        bf := a.frac.(!e)
      end;
      e := a.next.(!e)
    done;
    !best
  end

let round_integral (a : assignment) = Array.init a.n (choice a)

(* Exact reference solver via min-cost flow with one node per cell; only for
   small instances (tests, ablations). *)
let solve_exact p =
  let n = n_cells p and k = n_sinks p in
  (match short p with
   | Some why -> invalid_arg ("Transport.solve_exact: " ^ why)
   | None -> ());
  let g = Graph.create (n + k) in
  let arc = Array.make_matrix n k (-1) in
  let n_arcs = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to k - 1 do
      let c = p.cost.((i * k) + j) in
      if c < infinity then begin
        arc.(i).(j) <- Graph.add_edge g ~u:i ~v:(n + j) ~cap:p.sizes.(i) ~cost:c;
        incr n_arcs
      end
    done
  done;
  let supply = Array.make (n + k) 0.0 in
  for i = 0 to n - 1 do
    supply.(i) <- p.sizes.(i)
  done;
  for j = 0 to k - 1 do
    supply.(n + j) <- -.p.capacities.(j)
  done;
  match Mcf.solve_stats g ~supply with
  | Infeasible _, _ -> Error "no fractional assignment exists"
  | Feasible { cost }, { Mcf.potentials = pot; _ } ->
    (* each cell's chain lists its sinks in descending order *)
    let head = Array.make n (-1) in
    let sink = Array.make !n_arcs 0 and frac = Array.make !n_arcs 0.0 in
    let next = Array.make !n_arcs (-1) in
    let used = ref 0 in
    for i = 0 to n - 1 do
      for j = 0 to k - 1 do
        let a = arc.(i).(j) in
        if a >= 0 then begin
          let f = Graph.flow g a /. p.sizes.(i) in
          if f > eps then begin
            let e = !used in
            incr used;
            sink.(e) <- j;
            frac.(e) <- f;
            next.(e) <- head.(i);
            head.(i) <- e
          end
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
    let a = { n; k; head; sink; frac; next; load = Array.make k 0.0; cost; prices } in
    loads_into p a a.load;
    Ok a
