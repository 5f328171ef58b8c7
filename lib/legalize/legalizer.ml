(* Movebound-aware legalization (Section III).

   The paper legalizes per *region*: after the partitioning rho : C -> R,
   the cells of each region are legalized inside that region's area — which
   handles overlapping movebounds simultaneously, because by construction
   every cell admissible in a region may use all of it.  Within a region we
   run a Tetris/Abacus-style greedy: cells in left-to-right order, each
   placed at the displacement-minimal feasible spot, searching rows outward
   from the cell's position.  Cells that do not fit in their region
   (capacity lost to partial rows at movebound boundaries) spill into the
   nearest admissible region, against the same shared occupancy state.

   This replaces the Brenner–Vygen minimum-movement legalizer [6]; the
   substitution is recorded in DESIGN.md. *)

open Fbp_netlist

type stats = {
  n_legalized : int;
  n_spilled : int;  (* placed outside their assigned region (still legal) *)
  n_failed : int;  (* cells that found no space anywhere admissible *)
  avg_displacement : float;
  max_displacement : float;
  time : float;
}

(* Per-segment fill state, in growable arrays.

   The free x-intervals are the first [nf] entries of [f0]/[f1]: disjoint
   but not sorted.  The spot search takes the first interval of least cost
   (strict [<]), so their order decides exact ties.  [occupy] replaces the
   interval it cuts by its right remnant, then its left one: a slot filled
   by [occupy] alone lists its intervals right to left, and of two equally
   good intervals the rightmost wins.  [rebuild_free] lists them left to
   right, and compaction leaves at most one.  [g0]/[g1] receive [occupy]'s
   output and are then swapped in, so a warmed slot allocates nothing.

   The placed cells are the first [np] entries of [pc]/[px]/[pw] (cell,
   left edge, width), oldest first.  The compaction and eviction rungs
   read them newest first ([placed_list]): their stable sorts break ties
   in that order.

   Interval packing avoids the permanent gap waste of the classic
   cursor-based Tetris when regions run nearly full. *)
type slot = {
  seg : Rows.segment;
  mutable nf : int;
  mutable f0 : float array;
  mutable f1 : float array;
  mutable g0 : float array;
  mutable g1 : float array;
  mutable np : int;
  mutable pc : int array;
  mutable px : float array;
  mutable pw : float array;
}

let make_slot (seg : Rows.segment) =
  {
    seg;
    nf = 1;
    f0 = [| seg.Rows.x0 |];
    f1 = [| seg.Rows.x1 |];
    g0 = [||];
    g1 = [||];
    np = 0;
    pc = [||];
    px = [||];
    pw = [||];
  }

(* Segments of one region bucketed by row for outward search. *)
type pool = {
  by_row : slot array array;  (* index = row; left to right *)
  n_rows : int;
  row_height : float;
  chip_y0 : float;
  site : float;  (* placement lattice pitch within segments *)
}

let make_pool ~chip ~row_height ?(site = 0.0) segments =
  let site = if site > 0.0 then site else row_height in
  let n_rows =
    int_of_float (Float.round (Fbp_geometry.Rect.height chip /. row_height))
  in
  let by_row = Array.make (max 1 n_rows) [] in
  List.iter
    (fun (seg : Rows.segment) ->
      if seg.Rows.row >= 0 && seg.Rows.row < n_rows then
        by_row.(seg.Rows.row) <- seg :: by_row.(seg.Rows.row))
    segments;
  (* deterministic: left-to-right within each row *)
  let by_row =
    Array.map
      (fun l ->
        Array.of_list
          (List.map make_slot
             (List.sort
                (fun (a : Rows.segment) (b : Rows.segment) ->
                  Float.compare a.Rows.x0 b.Rows.x0)
                l)))
      by_row
  in
  { by_row; n_rows = max 1 n_rows; row_height; chip_y0 = chip.Fbp_geometry.Rect.y0; site }

(* Per-run state.  [find_spot] leaves the spot it chose in [slot] and
   [x0.(0)] (an array, so that storing the float does not box it) and
   adds the free intervals it examined to [scanned]; [compactions] and
   [evictions] count the firings of those rungs. *)
type search = {
  mutable slot : slot;
  x0 : float array;
  mutable scanned : int;
  mutable compactions : int;
  mutable evictions : int;
}

(* Find the spot of least displacement for cell [c] in the pools, searched
   in order; on success it is left in [st].  Plain loops: no closure,
   option or tuple per candidate. *)
let find_spot st (nl : Netlist.t) (pos : Placement.t) pools c =
  let w = nl.Netlist.widths.(c) in
  let cx = pos.Placement.x.(c) and cy = pos.Placement.y.(c) in
  let found = ref false and best_slot = ref st.slot in
  let best_cost = ref infinity and best_x0 = ref 0.0 in
  let scanned = ref 0 in
  for p = 0 to Array.length pools - 1 do
    let pool = pools.(p) in
    let desired_row =
      int_of_float (Float.floor ((cy -. pool.chip_y0) /. pool.row_height))
    in
    let desired_row = Int.max 0 (Int.min (pool.n_rows - 1) desired_row) in
    (* placements snap to the segment's site lattice: with integer-site
       cell widths, splits stay on the lattice and 100%-density rows pack
       without fragmentation waste *)
    let site = pool.site in
    (* outward row search, row desired - dr before desired + dr; once the
       pure y-distance of the next ring exceeds the best cost, no further
       row can win *)
    let dr = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let y_penalty = float_of_int (!dr - 1) *. pool.row_height in
      if !dr > 0 && y_penalty > !best_cost then continue_ := false
      else begin
        for side = 0 to (if !dr > 0 then 1 else 0) do
          let row = if side = 0 then desired_row - !dr else desired_row + !dr in
          if row >= 0 && row < pool.n_rows then begin
            let slots = pool.by_row.(row) in
            for s = 0 to Array.length slots - 1 do
              let slot = slots.(s) in
              let base = slot.seg.Rows.x0 in
              for i = 0 to slot.nf - 1 do
                let f0 = slot.f0.(i) and f1 = slot.f1.(i) in
                if f1 -. f0 >= w -. 1e-9 then begin
                  let kmin = Float.ceil ((f0 -. base) /. site -. 1e-9) in
                  let kmax = Float.floor ((f1 -. w -. base) /. site +. 1e-9) in
                  if kmax >= kmin then begin
                    let kdes = Float.round ((cx -. (w /. 2.0) -. base) /. site) in
                    let k = Float.max kmin (Float.min kmax kdes) in
                    let x0 = base +. (k *. site) in
                    let cost =
                      Float.abs (x0 +. (w /. 2.0) -. cx)
                      +. Float.abs (slot.seg.Rows.y -. cy)
                    in
                    if cost < !best_cost then begin
                      best_cost := cost;
                      best_x0 := x0;
                      best_slot := slot;
                      found := true
                    end
                  end
                end
              done;
              scanned := !scanned + slot.nf
            done
          end
        done;
        incr dr;
        if !dr >= pool.n_rows then continue_ := false
      end
    done
  done;
  st.scanned <- st.scanned + !scanned;
  if !found then begin
    st.slot <- !best_slot;
    st.x0.(0) <- !best_x0
  end;
  !found

(* Carve [x0, x0+w) out of the slot's free intervals, keeping their
   order: an interval the cell does not overlap stays, and one it
   overlaps gives way to its right remnant, then its left one, each kept
   when wider than 1e-9.  Every interval yields at most two, so the
   output buffers are sized for that before the pass. *)
let[@inline] occupy slot x0 w =
  let x1 = x0 +. w in
  let need = 2 * slot.nf in
  if Array.length slot.g0 < need then begin
    slot.g0 <- Array.create_float (2 * need);
    slot.g1 <- Array.create_float (2 * need)
  end;
  let g0 = slot.g0 and g1 = slot.g1 in
  let n = ref 0 in
  for i = 0 to slot.nf - 1 do
    let f0 = slot.f0.(i) and f1 = slot.f1.(i) in
    if x1 <= f0 +. 1e-12 || x0 >= f1 -. 1e-12 then begin
      g0.(!n) <- f0;
      g1.(!n) <- f1;
      incr n
    end
    else begin
      if f1 -. x1 > 1e-9 then begin
        g0.(!n) <- x1;
        g1.(!n) <- f1;
        incr n
      end;
      if x0 -. f0 > 1e-9 then begin
        g0.(!n) <- f0;
        g1.(!n) <- x0;
        incr n
      end
    end
  done;
  slot.g0 <- slot.f0;
  slot.g1 <- slot.f1;
  slot.f0 <- g0;
  slot.f1 <- g1;
  slot.nf <- !n

(* [grow a n fill]: [a], or a copy grown by doubling, with room for [n]
   entries. *)
let grow a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let[@inline] push_placed slot c x0 w =
  let k = slot.np in
  if k = Array.length slot.pc then begin
    slot.pc <- grow slot.pc (k + 1) 0;
    slot.px <- grow slot.px (k + 1) 0.0;
    slot.pw <- grow slot.pw (k + 1) 0.0
  end;
  slot.pc.(k) <- c;
  slot.px.(k) <- x0;
  slot.pw.(k) <- w;
  slot.np <- k + 1

let place_cell st (nl : Netlist.t) (pos : Placement.t) pools c =
  find_spot st nl pos pools c
  && begin
    let slot = st.slot and x0 = st.x0.(0) in
    let w = nl.Netlist.widths.(c) in
    pos.Placement.x.(c) <- x0 +. (w /. 2.0);
    pos.Placement.y.(c) <- slot.seg.Rows.y;
    occupy slot x0 w;
    push_placed slot c x0 w;
    true
  end

(* List views for the compaction and eviction rungs, which run only for
   the few cells that fit nowhere: the placed cells newest first, and
   their replacement by such a list. *)
let placed_list slot =
  let l = ref [] in
  for i = 0 to slot.np - 1 do
    l := (slot.pc.(i), slot.px.(i), slot.pw.(i)) :: !l
  done;
  !l

let set_placed slot l =
  let a = Array.of_list (List.rev l) in
  slot.np <- Array.length a;
  slot.pc <- Array.map (fun (c, _, _) -> c) a;
  slot.px <- Array.map (fun (_, x0, _) -> x0) a;
  slot.pw <- Array.map (fun (_, _, w) -> w) a

let set_free slot l =
  slot.nf <- List.length l;
  slot.f0 <- Array.of_list (List.map fst l);
  slot.f1 <- Array.of_list (List.map snd l)

(* free width, summed in interval order *)
let total_free slot =
  let t = ref 0.0 in
  for i = 0 to slot.nf - 1 do
    t := !t +. (slot.f1.(i) -. slot.f0.(i))
  done;
  !t

(* Last resort for a cell no free interval can host: find an admissible
   segment whose *total* free width suffices, left-compact it (closing the
   fragmentation gaps), and append the cell.  Shifts a handful of already
   legalized cells; only runs for the rare overflow stragglers. *)
let evict_and_compact st (nl : Netlist.t) (pos : Placement.t) pools c =
  let w = nl.Netlist.widths.(c) in
  let cy = pos.Placement.y.(c) in
  let best = ref None and best_cost = ref infinity in
  Array.iter
    (fun pool ->
      Array.iter
        (Array.iter (fun slot ->
             if total_free slot >= w -. 1e-9 then begin
               let cost = Float.abs (slot.seg.Rows.y -. cy) in
               if cost < !best_cost then begin
                 best_cost := cost;
                 best := Some slot
               end
             end))
        pool.by_row)
    pools;
  match !best with
  | None -> false
  | Some slot ->
    st.compactions <- st.compactions + 1;
    (* left-compact all placed cells, then append the newcomer *)
    let ordered =
      List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) (placed_list slot)
    in
    let cursor = ref slot.seg.Rows.x0 in
    let replaced =
      List.map
        (fun (pc, _, pw) ->
          let x0 = !cursor in
          cursor := !cursor +. pw;
          pos.Placement.x.(pc) <- x0 +. (pw /. 2.0);
          (pc, x0, pw))
        ordered
    in
    let x0 = !cursor in
    cursor := !cursor +. w;
    pos.Placement.x.(c) <- x0 +. (w /. 2.0);
    pos.Placement.y.(c) <- slot.seg.Rows.y;
    set_placed slot ((c, x0, w) :: replaced);
    set_free slot
      (if slot.seg.Rows.x1 -. !cursor > 1e-9 then [ (!cursor, slot.seg.Rows.x1) ] else []);
    true

(* Rebuild a slot's free intervals, left to right, from its placed cells. *)
let rebuild_free slot =
  let placed =
    List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) (placed_list slot)
  in
  let free = ref [] in
  let cursor = ref slot.seg.Rows.x0 in
  List.iter
    (fun (_, x0, w) ->
      if x0 -. !cursor > 1e-9 then free := (!cursor, x0) :: !free;
      cursor := Float.max !cursor (x0 +. w))
    placed;
  if slot.seg.Rows.x1 -. !cursor > 1e-9 then free := (!cursor, slot.seg.Rows.x1) :: !free;
  set_free slot (List.rev !free)

(* Cross-class eviction: a constrained cell that fits nowhere admissible may
   push *unconstrained* cells (admissible anywhere) out of one of its
   segments; the evicted cells are re-placed through the unconstrained
   pools, where the chip's global whitespace lives.  Returns the evicted
   cells still to be re-placed, or None if no segment can host [c]. *)
let evict_cross_class st (nl : Netlist.t) (pos : Placement.t) pools c =
  let own_mb = nl.Netlist.movebound.(c) in
  let w_in = nl.Netlist.widths.(c) in
  (* prefer evicting unconstrained cells; other classes and strictly
     narrower same-class cells as a last resort (narrower victims re-place
     easily, and the strict-width ordering guarantees termination) *)
  let evictable pc =
    nl.Netlist.movebound.(pc) <> own_mb || nl.Netlist.widths.(pc) < w_in -. 1e-9
  in
  let victim_order (a, _, wa) (b, _, wb) =
    let unc v = if nl.Netlist.movebound.(v) < 0 then 0 else 1 in
    match Int.compare (unc a) (unc b) with 0 -> Float.compare wa wb | c -> c
  in
  let w = nl.Netlist.widths.(c) in
  let cy = pos.Placement.y.(c) in
  let best = ref None and best_cost = ref infinity in
  Array.iter
    (fun pool ->
      Array.iter
        (Array.iter (fun slot ->
             (* evictable width, summed newest first *)
             let evictable_w = ref 0.0 in
             for i = slot.np - 1 downto 0 do
               if evictable slot.pc.(i) then evictable_w := !evictable_w +. slot.pw.(i)
             done;
             if total_free slot +. !evictable_w >= w -. 1e-9 then begin
               let cost = Float.abs (slot.seg.Rows.y -. cy) in
               if cost < !best_cost then begin
                 best_cost := cost;
                 best := Some slot
               end
             end))
        pool.by_row)
    pools;
  match !best with
  | None -> None
  | Some slot ->
    st.evictions <- st.evictions + 1;
    (* evict narrowest unconstrained cells until the newcomer fits *)
    let deficit = ref (w -. total_free slot) in
    let victims = ref [] in
    let keep = ref [] in
    List.iter
      (fun ((pc, _, pw) as entry) ->
        if !deficit > 1e-9 && evictable pc then begin
          victims := pc :: !victims;
          deficit := !deficit -. pw
        end
        else keep := entry :: !keep)
      (List.sort victim_order (placed_list slot));
    set_placed slot !keep;
    rebuild_free slot;
    (* left-compact and append the newcomer *)
    let ordered =
      List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) (placed_list slot)
    in
    let cursor = ref slot.seg.Rows.x0 in
    let replaced =
      List.map
        (fun (pc, _, pw) ->
          let x0 = !cursor in
          cursor := !cursor +. pw;
          pos.Placement.x.(pc) <- x0 +. (pw /. 2.0);
          (pc, x0, pw))
        ordered
    in
    let x0 = !cursor in
    pos.Placement.x.(c) <- x0 +. (w /. 2.0);
    pos.Placement.y.(c) <- slot.seg.Rows.y;
    set_placed slot ((c, x0, w) :: replaced);
    rebuild_free slot;
    Some !victims

(* [run inst regions pos ~piece_of_cell ~grid] legalizes in place.  Cells
   are grouped by the *global region* of their assigned piece (the paper's
   rho : C -> R); unassigned cells fall back to the region containing their
   current position. *)
(* [movebound_aware]: when false, spills may land in any region (emulating
   placers whose legalization does not reserve capacity per movebound —
   the RQL baseline); violations are then possible and counted upstream. *)
let legalize ?(movebound_aware = true) (inst : Fbp_movebound.Instance.t)
    (regions : Fbp_movebound.Regions.t) (pos : Placement.t)
    ~(piece_of_cell : int array) ~(grid : Fbp_core.Grid.t option) =
  let t0 = Fbp_util.Timer.now () in
  let design = inst.Fbp_movebound.Instance.design in
  let nl = design.Design.netlist in
  let k = Fbp_movebound.Instance.n_movebounds inst in
  let before = Placement.copy pos in
  let n_regions = Fbp_movebound.Regions.n_regions regions in
  (* one shared pool per region *)
  let pool_of_region =
    Array.init n_regions (fun rid ->
        let region = regions.Fbp_movebound.Regions.regions.(rid) in
        let segments =
          Rows.build ~chip:design.Design.chip ~row_height:design.Design.row_height
            ~blockages:design.Design.blockages ~region:rid
            region.Fbp_movebound.Regions.area
        in
        make_pool ~chip:design.Design.chip ~row_height:design.Design.row_height
          segments)
  in
  let own_pool = Array.map (fun pool -> [| pool |]) pool_of_region in
  (* admissible pools per movebound class, for spills *)
  let admissible_pools =
    Array.init (k + 1) (fun m ->
        let mb = if m = k then -1 else m in
        Array.of_list
          (List.filter_map
             (fun (r : Fbp_movebound.Regions.region) ->
               if (not movebound_aware) || Fbp_movebound.Regions.admissible r ~mb then
                 Some pool_of_region.(r.Fbp_movebound.Regions.id)
               else None)
             (Array.to_list regions.Fbp_movebound.Regions.regions)))
  in
  (* movable cells bucketed by assigned global region (a counting sort:
     region [r]'s cells are [cells.(start.(r)) .. cells.(start.(r + 1) - 1)],
     ids ascending) *)
  let n = Netlist.n_cells nl in
  let region_of = Array.make n (-1) in
  let start = Array.make (n_regions + 1) 0 in
  for c = 0 to n - 1 do
    if not nl.Netlist.fixed.(c) then begin
      let region =
        match grid with
        | Some g when c < Array.length piece_of_cell && piece_of_cell.(c) >= 0 ->
          g.Fbp_core.Grid.pieces.(piece_of_cell.(c)).Fbp_core.Grid.region
        | _ ->
          (Fbp_movebound.Regions.region_at regions (Placement.get pos c)).Fbp_movebound.Regions.id
      in
      region_of.(c) <- region;
      start.(region + 1) <- start.(region + 1) + 1
    end
  done;
  for r = 0 to n_regions - 1 do
    start.(r + 1) <- start.(r + 1) + start.(r)
  done;
  let cells = Array.make start.(n_regions) 0 in
  let fill = Array.sub start 0 n_regions in
  for c = 0 to n - 1 do
    let r = region_of.(c) in
    if r >= 0 then begin
      cells.(fill.(r)) <- c;
      fill.(r) <- fill.(r) + 1
    end
  done;
  let st =
    {
      slot = make_slot { Rows.row = -1; y = 0.0; x0 = 0.0; x1 = 0.0; region = -1 };
      x0 = [| 0.0 |];
      scanned = 0;
      compactions = 0;
      evictions = 0;
    }
  in
  let n_failed = ref 0 and n_legalized = ref 0 and n_spilled = ref 0 in
  let pending_failures = ref [] in
  for rid = 0 to n_regions - 1 do
    let len = start.(rid + 1) - start.(rid) in
    if len > 0 then begin
      (* left-to-right order stabilizes the Tetris sweep; the sort is
         stable, so tied cells stay in id order *)
      let order = Array.sub cells start.(rid) len in
      Array.stable_sort
        (fun a b -> Float.compare pos.Placement.x.(a) pos.Placement.x.(b))
        order;
      let pools = own_pool.(rid) in
      for i = 0 to len - 1 do
        let c = order.(i) in
        if place_cell st nl pos pools c then incr n_legalized
        else begin
          (* spill into any region admissible for the cell's movebound,
             along the chain: free slot anywhere admissible → segment
             compaction → eviction (re-homing victims recursively, with a
             depth bound against cross-class ping-pong) *)
          let rec place_hard depth v =
            let vm =
              let mb = nl.Netlist.movebound.(v) in
              if mb < 0 then k else mb
            in
            place_cell st nl pos admissible_pools.(vm) v
            || evict_and_compact st nl pos admissible_pools.(vm) v
            || (depth < 3
               &&
               match evict_cross_class st nl pos admissible_pools.(vm) v with
               | None -> false
               | Some victims ->
                 List.iter
                   (fun v' ->
                     if not (place_hard (depth + 1) v') then
                       pending_failures := v' :: !pending_failures)
                   victims;
                 true)
          in
          if place_hard 0 c then begin
            incr n_legalized;
            incr n_spilled
          end
          else pending_failures := c :: !pending_failures
        end
      done
    end
  done;
  (* final retry rounds: earlier compactions and evictions changed the
     landscape, so stragglers often fit on a later pass *)
  let retry_round cells =
    List.filter
      (fun c ->
        let m =
          let mb = nl.Netlist.movebound.(c) in
          if mb < 0 then k else mb
        in
        if place_cell st nl pos admissible_pools.(m) c
           || evict_and_compact st nl pos admissible_pools.(m) c
        then begin
          incr n_legalized;
          incr n_spilled;
          false
        end
        else true)
      cells
  in
  let rec retry rounds cells =
    if rounds = 0 || cells = [] then cells
    else begin
      let remaining = retry_round (List.sort_uniq Int.compare cells) in
      if List.length remaining = List.length cells then remaining
      else retry (rounds - 1) remaining
    end
  in
  let final_failures = retry 3 !pending_failures in
  n_failed := List.length final_failures;
  let avg = Placement.avg_displacement before pos in
  let worst = Placement.max_displacement before pos in
  Fbp_obs.Obs.count ~n:st.scanned "legalize.scanned_intervals";
  Fbp_obs.Obs.count ~n:st.compactions "legalize.compactions";
  Fbp_obs.Obs.count ~n:st.evictions "legalize.evictions";
  ( {
      n_legalized = !n_legalized;
      n_spilled = !n_spilled;
      n_failed = !n_failed;
      avg_displacement = avg;
      max_displacement = worst;
      time = Fbp_util.Timer.now () -. t0;
    },
    final_failures )

(* Deterministically damage a legalized placement: displace the first
   successfully legalized movable cell outside the chip.  Models a
   legalizer bug for the sanitizer tests. *)
let corrupt_placement (inst : Fbp_movebound.Instance.t) (pos : Placement.t)
    ~failed =
  let design = inst.Fbp_movebound.Instance.design in
  let nl = design.Design.netlist in
  let chip = design.Design.chip in
  let victim = ref (-1) in
  for c = Netlist.n_cells nl - 1 downto 0 do
    if (not nl.Netlist.fixed.(c)) && not (List.exists (Int.equal c) failed) then
      victim := c
  done;
  if !victim >= 0 then begin
    pos.Placement.x.(!victim) <-
      chip.Fbp_geometry.Rect.x1 +. (2.0 *. design.Design.row_height);
    pos.Placement.y.(!victim) <-
      chip.Fbp_geometry.Rect.y1 +. (2.0 *. design.Design.row_height)
  end

(* Fault-injection shim + post-legalization containment audit: a [Raise]
   fault models a legalizer failure; [Corrupt] displaces a cell off-chip
   after the sweep so the sanitizer's audit sees a wrong answer.  Cells
   the legalizer itself reported as failed are excused from the audit —
   they stay at their (possibly arbitrary) pre-legalization spots and are
   already counted in [n_failed]. *)
let run ?movebound_aware inst regions pos ~piece_of_cell ~grid =
  Fbp_obs.Obs.span "legalize.run" (fun () ->
      match Fbp_resilience.Inject.fire Fbp_resilience.Inject.Legalize with
      | Some (Fbp_resilience.Inject.Raise msg) ->
        (* fbp-lint: allow error-taxonomy — fires only when the fuzz harness arms the registry, which converts it; CLI runs never arm *)
        raise (Fbp_resilience.Inject.Injected msg)
      | fired ->
        let stats, failed =
          legalize ?movebound_aware inst regions pos ~piece_of_cell ~grid
        in
        (match fired with
        | Some Fbp_resilience.Inject.Corrupt ->
          corrupt_placement inst pos ~failed
        | _ -> ());
        Fbp_resilience.Sanitize.check ~site:"legalize.run"
          ~invariant:"chip containment" (fun () ->
            Fbp_movebound.Legality.audit_containment
              ~ignore:(fun c -> List.exists (Int.equal c) failed)
              inst pos);
        Fbp_obs.Obs.count ~n:stats.n_spilled "legalize.spilled_cells";
        Fbp_obs.Obs.count ~n:stats.n_failed "legalize.failed_cells";
        stats)
