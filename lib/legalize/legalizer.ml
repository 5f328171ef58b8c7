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

(* mutable per-segment fill state: the list of free x-intervals (kept
   sorted, non-overlapping).  Interval packing avoids the permanent gap
   waste of the classic cursor-based Tetris when regions run nearly full. *)
type slot = {
  seg : Rows.segment;
  mutable free : (float * float) list;
  mutable placed : (int * float * float) list;  (* cell, x0, width *)
}

(* Segments of one region bucketed by row for outward search. *)
type pool = {
  by_row : slot list array;  (* index = row *)
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
        by_row.(seg.Rows.row) <-
          { seg; free = [ (seg.Rows.x0, seg.Rows.x1) ]; placed = [] }
          :: by_row.(seg.Rows.row))
    segments;
  (* deterministic: left-to-right within each row *)
  Array.iteri
    (fun i l ->
      by_row.(i) <- List.sort (fun a b -> Float.compare a.seg.Rows.x0 b.seg.Rows.x0) l)
    by_row;
  { by_row; n_rows = max 1 n_rows; row_height; chip_y0 = chip.Fbp_geometry.Rect.y0; site }

(* Try to place a cell of width [w] desired at (cx, cy) into one of the
   pools (searched in order); returns the chosen slot and x0 or None. *)
let find_spot pools ~w ~cx ~cy =
  let best = ref None and best_cost = ref infinity in
  List.iter
    (fun pool ->
      let desired_row =
        int_of_float (Float.floor ((cy -. pool.chip_y0) /. pool.row_height))
      in
      let desired_row = max 0 (min (pool.n_rows - 1) desired_row) in
      let try_row row =
        if row >= 0 && row < pool.n_rows then
          List.iter
            (fun slot ->
              (* placements snap to the segment's site lattice: with
                 integer-site cell widths, splits stay on the lattice and
                 100%-density rows pack without fragmentation waste *)
              let base = slot.seg.Rows.x0 in
              let site = pool.site in
              List.iter
                (fun (f0, f1) ->
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
                        best := Some (slot, x0)
                      end
                    end
                  end)
                slot.free)
            pool.by_row.(row)
      in
      (* outward row search; once the pure y-distance of the next ring
         exceeds the best cost, no further row can win *)
      let dr = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let y_penalty = float_of_int (!dr - 1) *. pool.row_height in
        if !dr > 0 && y_penalty > !best_cost then continue_ := false
        else begin
          try_row (desired_row - !dr);
          if !dr > 0 then try_row (desired_row + !dr);
          incr dr;
          if !dr >= pool.n_rows then continue_ := false
        end
      done)
    pools;
  match !best with
  | Some (slot, x0) -> Some (slot, x0)
  | None -> None

(* carve [x0, x0+w) out of the slot's free intervals *)
let occupy slot x0 w =
  let x1 = x0 +. w in
  slot.free <-
    List.concat_map
      (fun (f0, f1) ->
        if x1 <= f0 +. 1e-12 || x0 >= f1 -. 1e-12 then [ (f0, f1) ]
        else begin
          let pieces = ref [] in
          if x0 -. f0 > 1e-9 then pieces := (f0, x0) :: !pieces;
          if f1 -. x1 > 1e-9 then pieces := (x1, f1) :: !pieces;
          !pieces
        end)
      slot.free

let place_cell (nl : Netlist.t) (pos : Placement.t) pools c =
  let w = nl.Netlist.widths.(c) in
  match find_spot pools ~w ~cx:pos.Placement.x.(c) ~cy:pos.Placement.y.(c) with
  | None -> false
  | Some (slot, x0) ->
    pos.Placement.x.(c) <- x0 +. (w /. 2.0);
    pos.Placement.y.(c) <- slot.seg.Rows.y;
    occupy slot x0 w;
    slot.placed <- (c, x0, w) :: slot.placed;
    true

(* Last resort for a cell no free interval can host: find an admissible
   segment whose *total* free width suffices, left-compact it (closing the
   fragmentation gaps), and append the cell.  Shifts a handful of already
   legalized cells; only runs for the rare overflow stragglers. *)
let evict_and_compact (nl : Netlist.t) (pos : Placement.t) pools c =
  let w = nl.Netlist.widths.(c) in
  let cy = pos.Placement.y.(c) in
  let best = ref None and best_cost = ref infinity in
  List.iter
    (fun pool ->
      Array.iter
        (fun slots ->
          List.iter
            (fun slot ->
              let total_free =
                List.fold_left (fun acc (f0, f1) -> acc +. (f1 -. f0)) 0.0 slot.free
              in
              if total_free >= w -. 1e-9 then begin
                let cost = Float.abs (slot.seg.Rows.y -. cy) in
                if cost < !best_cost then begin
                  best_cost := cost;
                  best := Some slot
                end
              end)
            slots)
        pool.by_row)
    pools;
  match !best with
  | None -> false
  | Some slot ->
    (* left-compact all placed cells, then append the newcomer *)
    let ordered =
      List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) slot.placed
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
    slot.placed <- (c, x0, w) :: replaced;
    slot.free <-
      (if slot.seg.Rows.x1 -. !cursor > 1e-9 then [ (!cursor, slot.seg.Rows.x1) ] else []);
    true

(* Rebuild a slot's free intervals from its placed list. *)
let rebuild_free slot =
  let placed = List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) slot.placed in
  let free = ref [] in
  let cursor = ref slot.seg.Rows.x0 in
  List.iter
    (fun (_, x0, w) ->
      if x0 -. !cursor > 1e-9 then free := (!cursor, x0) :: !free;
      cursor := Float.max !cursor (x0 +. w))
    placed;
  if slot.seg.Rows.x1 -. !cursor > 1e-9 then free := (!cursor, slot.seg.Rows.x1) :: !free;
  slot.free <- List.rev !free

(* Cross-class eviction: a constrained cell that fits nowhere admissible may
   push *unconstrained* cells (admissible anywhere) out of one of its
   segments; the evicted cells are re-placed through the unconstrained
   pools, where the chip's global whitespace lives.  Returns the evicted
   cells still to be re-placed, or None if no segment can host [c]. *)
let evict_cross_class (nl : Netlist.t) (pos : Placement.t) pools c =
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
  List.iter
    (fun pool ->
      Array.iter
        (fun slots ->
          List.iter
            (fun slot ->
              let total_free =
                List.fold_left (fun acc (f0, f1) -> acc +. (f1 -. f0)) 0.0 slot.free
              in
              let evictable_w =
                List.fold_left
                  (fun acc (pc, _, pw) -> if evictable pc then acc +. pw else acc)
                  0.0 slot.placed
              in
              if total_free +. evictable_w >= w -. 1e-9 then begin
                let cost = Float.abs (slot.seg.Rows.y -. cy) in
                if cost < !best_cost then begin
                  best_cost := cost;
                  best := Some slot
                end
              end)
            slots)
        pool.by_row)
    pools;
  match !best with
  | None -> None
  | Some slot ->
    (* evict narrowest unconstrained cells until the newcomer fits *)
    let total_free =
      List.fold_left (fun acc (f0, f1) -> acc +. (f1 -. f0)) 0.0 slot.free
    in
    let deficit = ref (w -. total_free) in
    let victims = ref [] in
    let keep = ref [] in
    List.iter
      (fun ((pc, _, pw) as entry) ->
        if !deficit > 1e-9 && evictable pc then begin
          victims := pc :: !victims;
          deficit := !deficit -. pw
        end
        else keep := entry :: !keep)
      (List.sort victim_order slot.placed);
    slot.placed <- !keep;
    rebuild_free slot;
    (* left-compact and append the newcomer *)
    let ordered = List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) slot.placed in
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
    slot.placed <- (c, x0, w) :: replaced;
    rebuild_free slot;
    Some !victims

(* [run inst regions pos ~piece_of_cell ~grid] legalizes in place.  Cells
   are grouped by the *global region* of their assigned piece (the paper's
   rho : C -> R); unassigned cells fall back to the region containing their
   current position. *)
(* [movebound_aware]: when false, spills may land in any region (emulating
   placers whose legalization does not reserve capacity per movebound —
   the RQL baseline); violations are then possible and counted upstream. *)
let run_impl ?(movebound_aware = true) (inst : Fbp_movebound.Instance.t)
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
  (* admissible pools per movebound class, for spills *)
  let admissible_pools =
    Array.init (k + 1) (fun m ->
        let mb = if m = k then -1 else m in
        List.filter_map
          (fun (r : Fbp_movebound.Regions.region) ->
            if (not movebound_aware) || Fbp_movebound.Regions.admissible r ~mb then
              Some pool_of_region.(r.Fbp_movebound.Regions.id)
            else None)
          (Array.to_list regions.Fbp_movebound.Regions.regions))
  in
  (* group movable cells by assigned global region *)
  let groups = Array.make n_regions [] in
  for c = Netlist.n_cells nl - 1 downto 0 do
    if not nl.Netlist.fixed.(c) then begin
      let region =
        match grid with
        | Some g when c < Array.length piece_of_cell && piece_of_cell.(c) >= 0 ->
          g.Fbp_core.Grid.pieces.(piece_of_cell.(c)).Fbp_core.Grid.region
        | _ ->
          (Fbp_movebound.Regions.region_at regions (Placement.get pos c)).Fbp_movebound.Regions.id
      in
      groups.(region) <- c :: groups.(region)
    end
  done;
  let n_failed = ref 0 and n_legalized = ref 0 and n_spilled = ref 0 in
  let pending_failures = ref [] in
  Array.iteri
    (fun rid cells ->
      if cells <> [] then begin
        (* left-to-right order stabilizes the Tetris sweep *)
        let order =
          List.sort (fun a b -> Float.compare pos.Placement.x.(a) pos.Placement.x.(b)) cells
        in
        let pool = pool_of_region.(rid) in
        List.iter
          (fun c ->
            if place_cell nl pos [ pool ] c then incr n_legalized
            else begin
              (* spill into any region admissible for the cell's
                 movebound, along the chain: free slot anywhere admissible
                 → segment compaction → eviction (re-homing victims
                 recursively, with a depth bound against cross-class
                 ping-pong) *)
              let rec place_hard depth v =
                let vm =
                  let mb = nl.Netlist.movebound.(v) in
                  if mb < 0 then k else mb
                in
                place_cell nl pos admissible_pools.(vm) v
                || evict_and_compact nl pos admissible_pools.(vm) v
                || (depth < 3
                   &&
                   match evict_cross_class nl pos admissible_pools.(vm) v with
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
            end)
          order
      end)
    groups;
  (* final retry rounds: earlier compactions and evictions changed the
     landscape, so stragglers often fit on a later pass *)
  let retry_round cells =
    List.filter
      (fun c ->
        let m =
          let mb = nl.Netlist.movebound.(c) in
          if mb < 0 then k else mb
        in
        if place_cell nl pos admissible_pools.(m) c
           || evict_and_compact nl pos admissible_pools.(m) c
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
          run_impl ?movebound_aware inst regions pos ~piece_of_cell ~grid
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
