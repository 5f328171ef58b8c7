(* Minimum-cost flow by the primal network simplex.

   This is the solver behind the global FBP model of Section IV-A, and the
   paper's choice of algorithm.  The basis is a strongly feasible spanning
   tree over the graph's nodes plus an artificial root, stored in the
   parent/pred/thread arrays of LEMON's NetworkSimplex; prices come from
   block search and potentials are updated one moved subtree at a time.

   The root closes the b-flow problem "supply nodes ship their supply,
   deficit nodes absorb at most their demand, transit nodes balance".
   With M = (max cost + 1)(n + 1), more than any simple path costs:
   - a deficit node v gets a slack arc root -> v of cost 0 and capacity
     -b(v), which carries v's unused demand (so v can never turn into a
     source);
   - a supply node v gets an unrouted arc v -> root of cost M and capacity
     b(v).  Routing a unit saves M minus a path cost, so the flow left on
     these arcs, [Infeasible { unrouted }], is exactly the supply that no
     flow can deliver;
   - every non-deficit node gets an artificial arc v -> root of cost 2M
     and unbounded capacity.  With the slack arcs they form the initial
     strongly feasible tree (all supply starts on the unrouted arcs); any
     cycle through an artificial arc costs more than M, so they end empty
     and unrouted supply stays at the node it came from.

   Input arc costs must be non-negative (true for the FBP model: L1
   distances and zero-cost external arcs), so no cycle is unbounded. *)

let eps = 1e-7

type result =
  | Feasible of { cost : float }
  | Infeasible of { unrouted : float }
      (** Total supply that cannot reach any deficit node.  By Theorem 3 this
          certifies that no (fractional) placement with movebounds exists. *)

type stats = { rounds : int; potentials : float array }

(* Arc states.  The sign multiplies the reduced cost in pricing: an arc at
   its lower bound improves with negative reduced cost, one at its upper
   bound with positive. *)
let upper = -1
let in_tree = 0
let lower = 1

(* The unrouted-arc cost M, more than any simple path costs; tolerances on
   reduced costs scale with it. *)
let big_m g =
  let max_cost = ref 0.0 in
  Graph.iter_edges g (fun a -> max_cost := Float.max !max_cost (Graph.cost g a));
  (!max_cost +. 1.0) *. float_of_int (Graph.n_nodes g + 1)

let solve_real g ~supply =
  let n = Graph.n_nodes g in
  if Array.length supply <> n then invalid_arg "Mcf.solve: supply length";
  Graph.iter_edges g (fun a ->
      if Graph.cost g a < 0.0 then
        invalid_arg "Mcf.solve: negative arc cost");
  (* arcs 0 .. m-1 are the graph's forward arcs (graph id 2e), arc m + v is
     node v's tree arc to the root, and the supply nodes' unrouted arcs
     follow; node n is the root *)
  let m = Graph.n_arcs g / 2 in
  let n_supply = Array.fold_left (fun k b -> if b > 0.0 then k + 1 else k) 0 supply in
  let n_arcs = m + n + n_supply in
  let root = n in
  let big_m = big_m g in
  let src = Array.make n_arcs root and dst = Array.make n_arcs root in
  let cap = Array.make n_arcs infinity and cost = Array.make n_arcs 0.0 in
  let flow = Array.make n_arcs 0.0 and state = Array.make n_arcs lower in
  for e = 0 to m - 1 do
    let a = 2 * e in
    src.(e) <- Graph.src g a;
    dst.(e) <- Graph.dst g a;
    cap.(e) <- Graph.capacity g a;
    cost.(e) <- Graph.cost g a
  done;
  (* initial tree: every node hangs off the root by its root arc *)
  let parent = Array.make (n + 1) (-1) and pred = Array.make (n + 1) (-1) in
  (* +1: the pred arc points up (node -> parent); -1: it points down *)
  let pred_dir = Array.make (n + 1) 0 in
  let thread = Array.make (n + 1) 0 and rev_thread = Array.make (n + 1) 0 in
  let succ_num = Array.make (n + 1) 1 and last_succ = Array.make (n + 1) 0 in
  let pi = Array.make (n + 1) 0.0 in
  let next_unrouted = ref (m + n) in
  for v = 0 to n - 1 do
    let e = m + v in
    parent.(v) <- root;
    pred.(v) <- e;
    thread.(v) <- v + 1;
    rev_thread.(v + 1) <- v;
    last_succ.(v) <- v;
    state.(e) <- in_tree;
    if supply.(v) < 0.0 then begin
      src.(e) <- root;
      dst.(e) <- v;
      cap.(e) <- -.supply.(v);
      flow.(e) <- -.supply.(v);
      pred_dir.(v) <- -1
    end
    else begin
      src.(e) <- v;
      cost.(e) <- 2.0 *. big_m;
      pi.(v) <- -2.0 *. big_m;
      pred_dir.(v) <- 1
    end;
    if supply.(v) > 0.0 then begin
      let e = !next_unrouted in
      incr next_unrouted;
      src.(e) <- v;
      cap.(e) <- supply.(v);
      cost.(e) <- big_m;
      flow.(e) <- supply.(v);
      state.(e) <- upper
    end
  done;
  thread.(root) <- 0;
  rev_thread.(0) <- root;
  succ_num.(root) <- n + 1;
  last_succ.(root) <- (if n = 0 then root else n - 1);
  let tol = 1e-12 *. big_m in
  let block = max 10 (int_of_float (sqrt (float_of_int n_arcs))) in
  let next_arc = ref 0 in
  (* thread positions whose successor changed in a tree update *)
  let dirty = Array.make (n + 2) 0 in
  let pivots = ref 0 and priced = ref 0 in
  let running = ref true in
  while !running do
    (* Pricing: scan blocks of arcs cyclically from [next_arc], stop after
       the first block holding an improving arc (or after every arc) and
       enter the best one seen.  A block is one or two plain loops, split
       where it wraps past the last arc; every index is below [n_arcs], and
       [src]/[dst] hold nodes of [pi], so the reads go unchecked.  The body
       is written out twice: a local function would capture [best] and
       [in_arc] and box them. *)
    let in_arc = ref (-1) and best = ref (-.tol) in
    let scanned = ref 0 in
    while !scanned < n_arcs && (!scanned = 0 || !in_arc < 0) do
      let lo = !next_arc + !scanned in
      let lo = if lo >= n_arcs then lo - n_arcs else lo in
      let len = min block (n_arcs - !scanned) in
      for a = lo to min (lo + len) n_arcs - 1 do
        let st = Array.unsafe_get state a in
        if st <> in_tree then begin
          let rc =
            Array.unsafe_get cost a
            +. Array.unsafe_get pi (Array.unsafe_get src a)
            -. Array.unsafe_get pi (Array.unsafe_get dst a)
          in
          let c = if st = lower then rc else -.rc in
          if c < !best then begin
            best := c;
            in_arc := a
          end
        end
      done;
      for a = 0 to lo + len - n_arcs - 1 do
        let st = Array.unsafe_get state a in
        if st <> in_tree then begin
          let rc =
            Array.unsafe_get cost a
            +. Array.unsafe_get pi (Array.unsafe_get src a)
            -. Array.unsafe_get pi (Array.unsafe_get dst a)
          in
          let c = if st = lower then rc else -.rc in
          if c < !best then begin
            best := c;
            in_arc := a
          end
        end
      done;
      scanned := !scanned + len
    done;
    priced := !priced + !scanned;
    let e = !next_arc + !scanned in
    next_arc := if e >= n_arcs then e - n_arcs else e;
    if !in_arc < 0 then running := false
    else begin
      incr pivots;
      let ia = !in_arc in
      let st = state.(ia) in
      (* join: the apex of the cycle the entering arc closes in the tree *)
      let u = ref src.(ia) and v = ref dst.(ia) in
      while !u <> !v do
        if succ_num.(!u) < succ_num.(!v) then u := parent.(!u)
        else v := parent.(!v)
      done;
      let join = !u in
      (* Leaving arc: the cycle is oriented along the entering arc, from
         [first] to [second].  Strict [<] on the first side and [<=] on the
         second keeps the tree strongly feasible (degenerate pivots cannot
         cycle). *)
      let first = if st = lower then src.(ia) else dst.(ia) in
      let second = if st = lower then dst.(ia) else src.(ia) in
      let delta = ref cap.(ia) in
      let side = ref 0 and u_out = ref (-1) and out_upper = ref false in
      let u = ref first in
      while !u <> join do
        let a = pred.(!u) in
        let down = pred_dir.(!u) < 0 in
        let d = if down then cap.(a) -. flow.(a) else flow.(a) in
        if d < !delta then begin
          delta := d;
          u_out := !u;
          side := 1;
          out_upper := down
        end;
        u := parent.(!u)
      done;
      let u = ref second in
      while !u <> join do
        let a = pred.(!u) in
        let up = pred_dir.(!u) > 0 in
        let d = if up then cap.(a) -. flow.(a) else flow.(a) in
        if d <= !delta then begin
          delta := d;
          u_out := !u;
          side := 2;
          out_upper := up
        end;
        u := parent.(!u)
      done;
      (* augment around the cycle *)
      if !delta > 0.0 then begin
        let value = if st = lower then !delta else -. !delta in
        flow.(ia) <- flow.(ia) +. value;
        let u = ref src.(ia) in
        while !u <> join do
          let a = pred.(!u) in
          flow.(a) <- (if pred_dir.(!u) > 0 then flow.(a) -. value else flow.(a) +. value);
          u := parent.(!u)
        done;
        let u = ref dst.(ia) in
        while !u <> join do
          let a = pred.(!u) in
          flow.(a) <- (if pred_dir.(!u) > 0 then flow.(a) +. value else flow.(a) -. value);
          u := parent.(!u)
        done
      end;
      if !side = 0 then begin
        (* the entering arc is its own bottleneck: it moves to its other
           bound and the tree stays as it is *)
        flow.(ia) <- (if st = lower then cap.(ia) else 0.0);
        state.(ia) <- -st
      end
      else begin
        let u_out = !u_out in
        let out_arc = pred.(u_out) in
        flow.(out_arc) <- (if !out_upper then cap.(out_arc) else 0.0);
        state.(out_arc) <- (if !out_upper then upper else lower);
        state.(ia) <- in_tree;
        let u_in = if !side = 1 then first else second in
        let v_in = if !side = 1 then second else first in
        (* Tree update: the subtree under [u_out] is re-hung from [v_in] by
           the entering arc, reversing the stem path u_in .. u_out. *)
        let old_rev_thread = rev_thread.(u_out) in
        let old_succ_num = succ_num.(u_out) in
        let old_last_succ = last_succ.(u_out) in
        let v_out = parent.(u_out) in
        let thread_continue =
          if old_rev_thread = v_in then thread.(old_last_succ) else thread.(v_in)
        in
        let stem = ref u_in and par_stem = ref v_in in
        let last = ref last_succ.(u_in) in
        let after = ref thread.(!last) in
        thread.(v_in) <- u_in;
        dirty.(0) <- v_in;
        let n_dirty = ref 1 in
        while !stem <> u_out do
          let next_stem = parent.(!stem) in
          thread.(!last) <- next_stem;
          dirty.(!n_dirty) <- !last;
          incr n_dirty;
          (* cut the stem node's subtree out of the thread *)
          let before = rev_thread.(!stem) in
          thread.(before) <- !after;
          rev_thread.(!after) <- before;
          parent.(!stem) <- !par_stem;
          par_stem := !stem;
          stem := next_stem;
          last :=
            if last_succ.(!stem) = last_succ.(!par_stem) then
              rev_thread.(!par_stem)
            else last_succ.(!stem);
          after := thread.(!last)
        done;
        parent.(u_out) <- !par_stem;
        thread.(!last) <- thread_continue;
        rev_thread.(thread_continue) <- !last;
        last_succ.(u_out) <- !last;
        if old_rev_thread <> v_in then begin
          thread.(old_rev_thread) <- !after;
          rev_thread.(!after) <- old_rev_thread
        end;
        for i = 0 to !n_dirty - 1 do
          let u = dirty.(i) in
          rev_thread.(thread.(u)) <- u
        done;
        (* reverse pred/pred_dir along the stem, recount its subtrees *)
        let tmp_sc = ref 0 and tmp_ls = last_succ.(u_out) in
        let u = ref u_out in
        while !u <> u_in do
          let p = parent.(!u) in
          pred.(!u) <- pred.(p);
          pred_dir.(!u) <- -pred_dir.(p);
          tmp_sc := !tmp_sc + succ_num.(!u) - succ_num.(p);
          succ_num.(!u) <- !tmp_sc;
          last_succ.(p) <- tmp_ls;
          u := p
        done;
        pred.(u_in) <- ia;
        pred_dir.(u_in) <- (if u_in = src.(ia) then 1 else -1);
        succ_num.(u_in) <- old_succ_num;
        (* last_succ and succ_num on the paths from v_in and v_out up *)
        let up_limit_out = if last_succ.(join) = v_in then join else -1 in
        let last_succ_out = last_succ.(u_out) in
        let u = ref v_in in
        while !u <> -1 && last_succ.(!u) = v_in do
          last_succ.(!u) <- last_succ_out;
          u := parent.(!u)
        done;
        if join <> old_rev_thread && v_in <> old_rev_thread then begin
          let u = ref v_out in
          while !u <> up_limit_out && last_succ.(!u) = old_last_succ do
            last_succ.(!u) <- old_rev_thread;
            u := parent.(!u)
          done
        end
        else if last_succ_out <> old_last_succ then begin
          let u = ref v_out in
          while !u <> up_limit_out && last_succ.(!u) = old_last_succ do
            last_succ.(!u) <- last_succ_out;
            u := parent.(!u)
          done
        end;
        let u = ref v_in in
        while !u <> join do
          succ_num.(!u) <- succ_num.(!u) + old_succ_num;
          u := parent.(!u)
        done;
        let u = ref v_out in
        while !u <> join do
          succ_num.(!u) <- succ_num.(!u) - old_succ_num;
          u := parent.(!u)
        done;
        (* potentials: shift the moved subtree so the entering arc has zero
           reduced cost *)
        let sigma =
          pi.(v_in) -. pi.(u_in)
          -. (if pred_dir.(u_in) > 0 then cost.(ia) else -.cost.(ia))
        in
        let stop = thread.(last_succ.(u_in)) in
        let u = ref u_in in
        while !u <> stop do
          pi.(!u) <- pi.(!u) +. sigma;
          u := thread.(!u)
        done
      end
    end
  done;
  let total_cost = ref 0.0 in
  for e = 0 to m - 1 do
    let f = Float.min cap.(e) (Float.max 0.0 flow.(e)) in
    if f > 0.0 then begin
      Graph.push g (2 * e) f;
      total_cost := !total_cost +. (f *. cost.(e))
    end
  done;
  let unrouted = ref 0.0 in
  for e = m + n to n_arcs - 1 do
    unrouted := !unrouted +. flow.(e)
  done;
  Fbp_obs.Obs.count "mcf.solves";
  Fbp_obs.Obs.observe "mcf.dijkstra_rounds" (float_of_int !pivots);
  Fbp_obs.Obs.count ~n:!priced "mcf.priced_arcs";
  let verdict =
    if !unrouted > eps then Infeasible { unrouted = !unrouted }
    else Feasible { cost = !total_cost }
  in
  (verdict, { rounds = !pivots; potentials = pi })

let solve_real g ~supply =
  Fbp_obs.Obs.span "mcf.solve" (fun () -> solve_real g ~supply)

let tol v = 1e-6 *. Float.max 1.0 (Float.abs v)

let net_outflow g =
  let net = Array.make (Graph.n_nodes g) 0.0 in
  Graph.iter_edges g (fun a ->
      let f = Graph.flow g a in
      net.(Graph.src g a) <- net.(Graph.src g a) +. f;
      net.(Graph.dst g a) <- net.(Graph.dst g a) -. f);
  net

(* Checked invariants of a computed flow (sanitizer mode; also exposed for
   tests).  Per forward arc: 0 <= flow <= original capacity.  Per node:
   conservation against the supply vector — supply nodes route out at most
   their supply (exactly, when the solver reported [Feasible]), deficit
   nodes absorb at most their demand, transshipment nodes balance to zero.
   Tolerances scale with the magnitudes involved. *)
let check_flow g ~supply ~exact =
  let n = Graph.n_nodes g in
  let bad = ref None in
  let report msg = if Option.is_none !bad then bad := Some msg in
  Graph.iter_edges g (fun a ->
      let f = Graph.flow g a and c0 = Graph.original_capacity g a in
      if f < -.(tol c0) then
        report
          (Printf.sprintf "arc %d (%d->%d): negative flow %.9g" a
             (Graph.src g a) (Graph.dst g a) f)
      else if f > c0 +. tol c0 then
        report
          (Printf.sprintf "arc %d (%d->%d): flow %.9g exceeds capacity %.9g"
             a (Graph.src g a) (Graph.dst g a) f c0));
  let net = net_outflow g in
  for v = 0 to n - 1 do
    let b = supply.(v) and o = net.(v) in
    let t = tol b in
    if b > t then begin
      (* supply node: 0 <= net out <= supply, = supply when fully routed *)
      if o < -.t || o > b +. t then
        report
          (Printf.sprintf "supply node %d: net outflow %.9g outside [0, %.9g]"
             v o b)
      else if exact && Float.abs (o -. b) > t then
        report
          (Printf.sprintf
             "supply node %d: net outflow %.9g <> routed supply %.9g" v o b)
    end
    else if b < -.t then begin
      (* deficit node: absorbs at most its demand *)
      if o > t || o < b -. t then
        report
          (Printf.sprintf "deficit node %d: net outflow %.9g outside [%.9g, 0]"
             v o b)
    end
    else if Float.abs o > tol o then
      report
        (Printf.sprintf "transshipment node %d: net outflow %.9g <> 0" v o)
  done;
  match !bad with None -> Ok () | Some msg -> Error msg

(* The dual certificate, in O(|E|): under the simplex's final potentials
   every residual arc has reduced cost >= -tol.  A forward arc below
   capacity may not have negative reduced cost, one carrying flow may not
   have positive reduced cost; the same holds for the root arcs, whose
   flows follow from the per-node imbalance (the slack arc carries a
   deficit node's unused demand, the unrouted arc a supply node's
   undelivered supply, the artificial arcs nothing). *)
let check_certificate g ~supply ~potentials:pi =
  let n = Graph.n_nodes g in
  let big_m = big_m g in
  let rc_tol = 1e-9 *. big_m in
  let bad = ref None in
  let report msg = if Option.is_none !bad then bad := Some msg in
  let check what ~f ~cap ~rc =
    if (Float.equal cap infinity || f < cap -. tol cap) && rc < -.rc_tol then
      report
        (Printf.sprintf "%s has residual capacity at reduced cost %.9g"
           (what ()) rc)
    else if f > tol cap && rc > rc_tol then
      report
        (Printf.sprintf "%s carries flow at reduced cost %.9g" (what ()) rc)
  in
  if Array.length pi <> n + 1 then report "potential vector length"
  else begin
    Graph.iter_edges g (fun a ->
        let u = Graph.src g a and v = Graph.dst g a in
        check
          (fun () -> Printf.sprintf "arc %d (%d->%d)" a u v)
          ~f:(Graph.flow g a) ~cap:(Graph.original_capacity g a)
          ~rc:(Graph.cost g a +. pi.(u) -. pi.(v)));
    let net = net_outflow g in
    for v = 0 to n - 1 do
      let b = supply.(v) in
      if b < 0.0 then
        check
          (fun () -> Printf.sprintf "slack arc of deficit node %d" v)
          ~f:(net.(v) -. b) ~cap:(-.b) ~rc:(pi.(n) -. pi.(v))
      else begin
        check
          (fun () -> Printf.sprintf "artificial arc of node %d" v)
          ~f:0.0 ~cap:infinity ~rc:((2.0 *. big_m) +. pi.(v) -. pi.(n));
        if b > 0.0 then
          check
            (fun () -> Printf.sprintf "unrouted arc of supply node %d" v)
            ~f:(b -. net.(v)) ~cap:b ~rc:(big_m +. pi.(v) -. pi.(n))
      end
    done
  end;
  match !bad with None -> Ok () | Some msg -> Error msg

let audit g ~supply (verdict, stats) =
  let exact = match verdict with Feasible _ -> true | Infeasible _ -> false in
  Fbp_resilience.Sanitize.check ~site:"mcf.solve"
    ~invariant:"flow conservation and capacity bounds" (fun () ->
      check_flow g ~supply ~exact);
  Fbp_resilience.Sanitize.check ~site:"mcf.solve"
    ~invariant:"reduced-cost optimality certificate" (fun () ->
      check_certificate g ~supply ~potentials:stats.potentials)

(* Deterministically damage the computed flow: push extra units over the
   first arc with residual room (or force the first arc over capacity).
   Models a solver bug for the sanitizer tests. *)
let corrupt_flow g =
  let n = Graph.n_arcs g in
  let victim = ref (-1) in
  Graph.iter_edges g (fun a ->
      if !victim < 0 && Graph.capacity g a > 1e-3 then victim := a);
  if !victim >= 0 then Graph.push g !victim (0.5 *. Graph.capacity g !victim)
  else if n > 0 then Graph.push g 0 1.0

(* Fault-injection shim: tests can force an infeasibility verdict, a domain
   exception, or a post-solve flow corruption (caught by the sanitizer)
   here to exercise the placer's degradation ladder. *)
let solve_stats g ~supply =
  match Fbp_resilience.Inject.fire Fbp_resilience.Inject.Mcf with
  | Some (Fbp_resilience.Inject.Infeasible unrouted) ->
    (Infeasible { unrouted }, { rounds = 0; potentials = [||] })
  | Some (Fbp_resilience.Inject.Raise msg) ->
    raise (Fbp_resilience.Inject.Injected msg)
  | fired ->
    let out = solve_real g ~supply in
    (match fired with
    | Some Fbp_resilience.Inject.Corrupt -> corrupt_flow g
    | _ -> ());
    audit g ~supply out;
    out

let solve g ~supply = fst (solve_stats g ~supply)

(* Optimality audit used by property tests: a flow is min-cost iff the
   residual network contains no arc with negative reduced cost under some
   potential; we verify with Bellman-Ford that the residual network has no
   negative cycle. Returns [true] when optimal. *)
let check_optimal g =
  let n = Graph.n_nodes g in
  let dist = Array.make n 0.0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    for u = 0 to n - 1 do
      Graph.iter_out g u (fun a ->
          if Graph.capacity g a > eps then begin
            let v = Graph.dst g a in
            if dist.(u) +. Graph.cost g a < dist.(v) -. 1e-6 then begin
              dist.(v) <- dist.(u) +. Graph.cost g a;
              changed := true
            end
          end)
    done
  done;
  not !changed
