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
   whenever a fractional solution exists the result respects capacities. *)

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
  prices : float array;  (* sink prices: the dual certificate *)
}

let n_cells p = Array.length p.sizes
let n_sinks p = Array.length p.capacities

(* Overload and slack below this much mass count as zero. *)
let mass_tol p = 1e-7 *. Float.max 1.0 (Array.fold_left ( +. ) 0.0 p.sizes)

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
  frac.(i) <- if f > 0.0 then (j, f) :: rest else rest

let solve_impl p =
  let n = n_cells p and k = n_sinks p in
  if k = 0 then invalid_arg "Transport.solve: no sinks";
  (* Greedy start: every cell at its independently cheapest admissible sink. *)
  let cheapest i =
    let best = ref (-1) and bestc = ref infinity in
    for j = 0 to k - 1 do
      let c = p.cost i j in
      if c < !bestc then begin
        bestc := c;
        best := j
      end
    done;
    !best
  in
  let start = Array.init n cheapest in
  match Array.find_index (fun j -> j < 0) start with
  | Some i -> Error (Printf.sprintf "cell %d has no admissible sink" i)
  | None ->
    let frac = Array.map (fun j -> [ (j, 1.0) ]) start in
    let load = loads p frac in
    (* Per-(from, to) candidate heaps keyed by the per-unit relocation delta;
       entries are cell ids, dropped lazily once the cell has left [from]. *)
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
    Array.iteri enqueue_cell start;
    let tol = mass_tol p in
    let slack j = p.capacities.(j) -. load.(j) in
    (* Cheapest cell still at u on arc (u, v), with its relocation delta. *)
    let rec arc_top u v =
      match Fbp_util.Pq.peek (heap u v) with
      | Some (_, i) as top when frac_at frac i u > 0.0 -> top
      | Some _ ->
        ignore (Fbp_util.Pq.pop (heap u v));
        arc_top u v
      | None -> None
    in
    let pi = Array.make k 0.0 in
    let dist = Array.make k infinity and settled = Array.make k false in
    (* the shortest-path tree: predecessor sink and the cell moved on the hop *)
    let pred = Array.make k (-1) and via = Array.make k (-1) in
    (* An overloaded sink that reaches no slack is stuck for good: nothing
       in its reachable set can leave it, so no augmenting path enters. *)
    let stuck = Array.make k false in
    let steps = ref 0 in
    let find_overloaded () =
      let best = ref (-1) and worst = ref tol in
      for j = 0 to k - 1 do
        let o = -.slack j in
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
      let rec next () =
        let u = ref (-1) in
        for v = 0 to k - 1 do
          if (not settled.(v)) && dist.(v) < infinity && (!u < 0 || dist.(v) < dist.(!u))
          then u := v
        done;
        let u = !u in
        if u < 0 || slack u > tol then u
        else begin
          settled.(u) <- true;
          for v = 0 to k - 1 do
            if not settled.(v) then
              match arc_top u v with
              | Some (w, i) ->
                let d = dist.(u) +. Float.max 0.0 (w +. pi.(u) -. pi.(v)) in
                if d < dist.(v) then begin
                  dist.(v) <- d;
                  pred.(v) <- u;
                  via.(v) <- i
                end
              | None -> ()
          done;
          next ()
        end
      in
      next ()
    in
    (* Shift [mass] of cell i from u to v; a remainder below [eps] of the
       cell goes along so that no fraction is ever rounded away. *)
    let move i u v mass =
      let fu = frac_at frac i u and fv = frac_at frac i v in
      let df = Float.min fu (mass /. p.sizes.(i)) in
      let df = if fu -. df <= eps then fu else df in
      set_frac frac i u (fu -. df);
      set_frac frac i v (fv +. df);
      load.(u) <- load.(u) -. (df *. p.sizes.(i));
      load.(v) <- load.(v) +. (df *. p.sizes.(i));
      if Float.equal fv 0.0 then enqueue_cell i v
    in
    (* Raise the prices by the capped distances, then push the bottleneck
       amount along the path.  Each hop moves the cell the search recorded
       for it, not the current top of its heap: an earlier hop may have
       brought a cheaper cell into the hop's tail. *)
    let augment u0 t =
      let dt = dist.(t) in
      Array.iteri (fun v d -> pi.(v) <- pi.(v) +. Float.min d dt) dist;
      let rec hops v acc = if v = u0 then acc else hops pred.(v) ((via.(v), pred.(v), v) :: acc) in
      let path = hops t [] in
      let delta =
        List.fold_left
          (fun d (i, u, _) -> Float.min d (frac_at frac i u *. p.sizes.(i)))
          (Float.min (-.slack u0) (slack t))
          path
      in
      List.iter (fun (i, u, v) -> move i u v delta) path
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
          let c = p.cost i v in
          if c < infinity then begin
            best := Float.min !best (c -. a.prices.(v));
            row_scale := Float.max !row_scale (Float.abs c)
          end
        done;
        List.iter
          (fun (u, _) ->
            let r = p.cost i u -. a.prices.(u) in
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
      let c = p.cost i j in
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
