(* Tests for fbp_legalize: row segment construction, the interval packer,
   end-to-end legality with and without movebounds, and displacement
   sanity. *)

open Fbp_geometry
open Fbp_netlist
open Fbp_legalize

let check_float = Alcotest.(check (float 1e-6))

let chip = Rect.make ~x0:0.0 ~y0:0.0 ~x1:10.0 ~y1:6.0

let test_rows_basic () =
  let area = Rect_set.of_rect chip in
  let segs = Rows.build ~chip ~row_height:1.0 ~blockages:[] area in
  Alcotest.(check int) "six rows" 6 (List.length segs);
  check_float "total width" 60.0 (Rows.total_width segs)

let test_rows_blockage_splits () =
  let area = Rect_set.of_rect chip in
  let block = Rect.make ~x0:4.0 ~y0:0.0 ~x1:6.0 ~y1:2.0 in
  let segs = Rows.build ~chip ~row_height:1.0 ~blockages:[ block ] area in
  (* rows 0 and 1 split into two segments each: 6 + 2 = 8 segments *)
  Alcotest.(check int) "segments" 8 (List.length segs);
  check_float "width loses blockage" 56.0 (Rows.total_width segs)

let test_rows_partial_height_dropped () =
  (* a region covering only half a row contributes no segment there *)
  let area = Rect_set.of_rect (Rect.make ~x0:0.0 ~y0:0.5 ~x1:10.0 ~y1:2.0) in
  let segs = Rows.build ~chip ~row_height:1.0 ~blockages:[] area in
  Alcotest.(check int) "only the full row survives" 1 (List.length segs);
  (match segs with
   | [ s ] -> check_float "row 1 center" 1.5 s.Rows.y
   | _ -> Alcotest.fail "expected one segment")

(* small helper design: n unit cells piled at one point *)
let pile_design n =
  let netlist = Test_core.netlist ~widths:(Array.make n 1.0) [||] in
  let initial = Placement.create n in
  for c = 0 to n - 1 do
    Placement.set initial c (Point.make 5.0 3.0)
  done;
  {
    Design.name = "pile";
    chip;
    row_height = 1.0;
    netlist;
    blockages = [];
    initial;
    target_density = 1.0;
  }

let legalize_design d =
  let inst = Fbp_movebound.Instance.unconstrained d in
  let regions =
    Fbp_movebound.Regions.decompose ~chip:d.Design.chip inst.Fbp_movebound.Instance.movebounds
  in
  let pos = Placement.copy d.Design.initial in
  let st =
    Legalizer.run inst regions pos
      ~piece_of_cell:(Array.make (Netlist.n_cells d.Design.netlist) (-1))
      ~grid:None
  in
  (inst, pos, st)

let test_legalize_pile () =
  let d = pile_design 20 in
  let _, pos, st = legalize_design d in
  Alcotest.(check int) "all legalized" 20 st.Legalizer.n_legalized;
  Alcotest.(check int) "none failed" 0 st.Legalizer.n_failed;
  let audit = Check.audit d pos in
  Alcotest.(check bool) "legal" true audit.Check.legal

let test_legalize_full_chip () =
  (* 60 unit cells into 60 slots: tight packing must still succeed *)
  let d = pile_design 60 in
  let _, pos, st = legalize_design d in
  Alcotest.(check int) "none failed" 0 st.Legalizer.n_failed;
  let audit = Check.audit d pos in
  Alcotest.(check bool) "legal at 100% density" true audit.Check.legal

let test_legalize_overfull_reports () =
  let d = pile_design 61 in
  let _, _, st = legalize_design d in
  Alcotest.(check int) "one cell cannot fit" 1 st.Legalizer.n_failed

let test_legalize_generated_design_with_movebounds () =
  let d = Generator.quick ~seed:31 ~name:"lg" 1500 in
  let c = d.Design.chip in
  let w = Rect.width c and h = Rect.height c in
  let island =
    Rect.make ~x0:(0.1 *. w) ~y0:(0.1 *. h) ~x1:(0.45 *. w) ~y1:(0.5 *. h)
  in
  let nl = d.Design.netlist in
  let rng = Fbp_util.Rng.create 2 in
  for i = 0 to Netlist.n_cells nl - 1 do
    if Fbp_util.Rng.float rng < 0.15 then nl.Netlist.movebound.(i) <- 0
  done;
  let inst =
    { Fbp_movebound.Instance.design = d;
      movebounds =
        [| Fbp_movebound.Movebound.make ~id:0 ~name:"isl"
             ~kind:Fbp_movebound.Movebound.Inclusive [ island ] |] }
  in
  match Fbp_core.Placer.place inst with
  | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
  | Ok rep ->
    let pos = rep.Fbp_core.Placer.placement in
    let st =
      Legalizer.run inst rep.Fbp_core.Placer.regions pos
        ~piece_of_cell:rep.Fbp_core.Placer.piece_of_cell
        ~grid:rep.Fbp_core.Placer.final_grid
    in
    Alcotest.(check int) "no failures" 0 st.Legalizer.n_failed;
    let audit = Check.audit d pos in
    Alcotest.(check bool)
      (Printf.sprintf "legal (ov=%d offrow=%d out=%d blk=%d)" audit.Check.n_overlaps
         audit.Check.n_off_row audit.Check.n_outside_chip audit.Check.n_on_blockage)
      true audit.Check.legal;
    let mb = Fbp_movebound.Legality.check inst pos in
    Alcotest.(check int) "movebound clean" 0 mb.Fbp_movebound.Legality.n_violations

let test_legalize_displacement_reasonable () =
  (* legalizing an already near-legal placement must barely move cells *)
  let n = 30 in
  let netlist = Test_core.netlist ~widths:(Array.make n 1.0) [||] in
  let initial = Placement.create n in
  (* already on a legal grid, slightly jittered *)
  for c = 0 to n - 1 do
    let col = c mod 10 and row = c / 10 in
    Placement.set initial c
      (Point.make (float_of_int col +. 0.52) (float_of_int row +. 0.48))
  done;
  let d =
    { Design.name = "grid"; chip; row_height = 1.0; netlist; blockages = [];
      initial; target_density = 1.0 }
  in
  let _, pos, st = legalize_design d in
  Alcotest.(check int) "all placed" 0 st.Legalizer.n_failed;
  Alcotest.(check bool)
    (Printf.sprintf "avg displacement %.3f small" st.Legalizer.avg_displacement)
    true
    (st.Legalizer.avg_displacement < 0.2);
  let audit = Check.audit d pos in
  Alcotest.(check bool) "legal" true audit.Check.legal

(* ---------- Flow-based legalizer (Brenner-Vygen style) ---------- *)

let test_flow_legalizer_pile () =
  let d = pile_design 40 in
  let inst = Fbp_movebound.Instance.unconstrained d in
  let regions =
    Fbp_movebound.Regions.decompose ~chip:d.Design.chip inst.Fbp_movebound.Instance.movebounds
  in
  let pos = Placement.copy d.Design.initial in
  let st = Flow_legalizer.run inst regions pos in
  Alcotest.(check int) "all legalized" 40 st.Flow_legalizer.n_legalized;
  Alcotest.(check int) "none failed" 0 st.Flow_legalizer.n_failed;
  let audit = Check.audit d pos in
  Alcotest.(check bool)
    (Printf.sprintf "legal (ov=%d offrow=%d)" audit.Check.n_overlaps audit.Check.n_off_row)
    true audit.Check.legal

let test_flow_legalizer_on_generated () =
  let d = Generator.quick ~seed:91 ~name:"fl" 500 in
  let inst = Fbp_movebound.Instance.unconstrained d in
  match Fbp_core.Placer.place inst with
  | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
  | Ok rep ->
    let pos_tetris = Placement.copy rep.Fbp_core.Placer.placement in
    let pos_flow = Placement.copy rep.Fbp_core.Placer.placement in
    let st_t =
      Legalizer.run inst rep.Fbp_core.Placer.regions pos_tetris
        ~piece_of_cell:rep.Fbp_core.Placer.piece_of_cell
        ~grid:rep.Fbp_core.Placer.final_grid
    in
    let st_f = Flow_legalizer.run inst rep.Fbp_core.Placer.regions pos_flow in
    Alcotest.(check int) "tetris clean" 0 st_t.Legalizer.n_failed;
    Alcotest.(check int) "flow clean" 0 st_f.Flow_legalizer.n_failed;
    let audit_f = Check.audit d pos_flow in
    Alcotest.(check bool)
      (Printf.sprintf "flow-legalized placement legal (ov=%d offrow=%d out=%d)"
         audit_f.Check.n_overlaps audit_f.Check.n_off_row audit_f.Check.n_outside_chip)
      true audit_f.Check.legal;
    (* both displacement figures should be sane (below a handful of rows) *)
    Alcotest.(check bool)
      (Printf.sprintf "flow displacement %.2f sane" st_f.Flow_legalizer.avg_displacement)
      true
      (st_f.Flow_legalizer.avg_displacement < 10.0)

let test_check_detects_overlap () =
  let d = pile_design 2 in
  let pos = Placement.copy d.Design.initial in
  (* both cells at the same legal spot: row-aligned but overlapping *)
  Placement.set pos 0 (Point.make 2.5 1.5);
  Placement.set pos 1 (Point.make 2.8 1.5);
  let audit = Check.audit d pos in
  Alcotest.(check bool) "overlap found" true (audit.Check.n_overlaps > 0);
  Alcotest.(check bool) "not legal" false audit.Check.legal

(* The reference audit, straightforward and slow: rectangles rebuilt
   inside the sort comparator, rows bucketed in a [Hashtbl] of lists
   (descending cell id, since cells are prepended in ascending order),
   each bucket sorted with [List.sort] (stable).  [Check.audit] must give
   the same four counts. *)
let reference_audit (design : Design.t) (pos : Placement.t) =
  let nl = design.Design.netlist in
  let chip = design.Design.chip in
  let rh = design.Design.row_height in
  let movable = ref [] in
  for c = Netlist.n_cells nl - 1 downto 0 do
    if not nl.Netlist.fixed.(c) then movable := c :: !movable
  done;
  let movable = !movable in
  let n_off_row = ref 0 and n_outside = ref 0 and n_blocked = ref 0 in
  List.iter
    (fun c ->
      let r = Placement.cell_rect nl pos c in
      if not (Rect.contains chip r) then incr n_outside;
      let rel = (r.Rect.y0 -. chip.Rect.y0) /. rh in
      if Float.abs (rel -. Float.round rel) > 1e-6 then incr n_off_row;
      if List.exists (fun b -> Rect.overlaps b r) design.Design.blockages then
        incr n_blocked)
    movable;
  let by_row = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let r = Placement.cell_rect nl pos c in
      let row = int_of_float (Float.round ((r.Rect.y0 -. chip.Rect.y0) /. rh)) in
      Hashtbl.replace by_row row
        (c :: (try Hashtbl.find by_row row with Not_found -> [])))
    movable;
  let n_overlaps = ref 0 in
  Hashtbl.iter
    (fun _ cells ->
      let sorted =
        List.sort
          (fun a b ->
            Float.compare
              (Placement.cell_rect nl pos a).Rect.x0
              (Placement.cell_rect nl pos b).Rect.x0)
          cells
      in
      let reach = ref neg_infinity in
      List.iter
        (fun c ->
          let r = Placement.cell_rect nl pos c in
          if r.Rect.x0 < !reach -. 1e-9 then incr n_overlaps;
          if r.Rect.x1 > !reach then reach := r.Rect.x1)
        sorted)
    by_row;
  (!n_overlaps, !n_off_row, !n_outside, !n_blocked)

(* A design of cells given as (left edge, bottom edge, width, fixed) on
   the 10x6 chip, unit height, with one blockage in row 4. *)
let audit_design cells =
  let n = Array.length cells in
  let netlist =
    Test_core.netlist
      ~widths:(Array.map (fun (_, _, w, _) -> w) cells)
      ~fixed:(Array.map (fun (_, _, _, f) -> f) cells)
      [||]
  in
  let initial = Placement.create n in
  Array.iteri
    (fun c (x0, y0, w, _) ->
      Placement.set initial c (Point.make (x0 +. (w /. 2.0)) (y0 +. 0.5)))
    cells;
  {
    Design.name = "audit";
    chip;
    row_height = 1.0;
    netlist;
    blockages = [ Rect.make ~x0:8.0 ~y0:4.0 ~x1:9.0 ~y1:5.0 ];
    initial;
    target_density = 1.0;
  }

let audit_counts d =
  let a = Check.audit d d.Design.initial in
  (a.Check.n_overlaps, a.Check.n_off_row, a.Check.n_outside_chip,
   a.Check.n_on_blockage)

let counts = Alcotest.(pair (pair int int) (pair int int))
let split (a, b, c, d) = ((a, b), (c, d))

(* Tied left edges, nested and chained overlaps, zero-width cells, off-row,
   outside and blocked cells, a fixed cell: the four counts equal the
   reference's, on this fixture and on random piles of the same kinds. *)
let test_check_audit_counts () =
  let fixture =
    [|
      (* row 0: three tied left edges; a cell nested in a wider one *)
      (1.0, 0.0, 2.0, false); (1.0, 0.0, 1.0, false); (1.0, 0.0, 0.5, false);
      (5.0, 0.0, 4.0, false); (6.0, 0.0, 1.0, false);
      (* row 1: a chain (each overlaps the next only), then two touching
         cells *)
      (0.0, 1.0, 2.0, false); (1.5, 1.0, 2.0, false); (3.0, 1.0, 2.0, false);
      (6.0, 1.0, 1.0, false); (7.0, 1.0, 1.0, false);
      (* row 2: a zero-width cell tied with a wider later one: the count
         depends on which one the sweep meets first *)
      (2.0, 2.0, 0.0, false); (2.0, 2.0, 2.0, false);
      (* row 3: off-row, outside the chip, and a fixed cell on a movable
         one (fixed cells are not audited) *)
      (4.0, 3.3, 1.0, false); (-1.0, 3.0, 2.0, false);
      (6.0, 3.0, 2.0, true); (6.5, 3.0, 1.0, false);
      (* row 4: on the blockage *)
      (8.5, 4.0, 1.0, false);
    |]
  in
  let d = audit_design fixture in
  let expected = reference_audit d d.Design.initial in
  Alcotest.(check counts) "fixture" (split expected) (split (audit_counts d));
  let ov, off, out, blk = expected in
  Alcotest.(check bool) "the fixture exercises every count" true
    (ov >= 5 && off = 1 && out = 1 && blk = 1);
  for seed = 0 to 19 do
    let rng = Fbp_util.Rng.create (1000 + seed) in
    let widths = [| 0.0; 0.5; 1.0; 2.0; 3.0 |] in
    let pile =
      Array.init 300 (fun _ ->
          let x0 = 0.5 *. float_of_int (Fbp_util.Rng.int rng 20) in
          let row = float_of_int (Fbp_util.Rng.int rng 6) in
          let y0 = if Fbp_util.Rng.int rng 10 = 0 then row +. 0.25 else row in
          (x0, y0, widths.(Fbp_util.Rng.int rng 5), Fbp_util.Rng.int rng 20 = 0))
    in
    let d = audit_design pile in
    Alcotest.(check counts)
      (Printf.sprintf "random pile %d" seed)
      (split (reference_audit d d.Design.initial))
      (split (audit_counts d))
  done

(* ---------- Flat legalizer against the list reference ---------- *)

(* The list legalizer the flat one replaced, kept as the reference with
   its code unchanged: free intervals and placed cells in lists, the spot
   search in closures, the sweep order from [List.sort].
   [Legalizer.legalize] must reproduce its positions, statistics and
   failed cells bit for bit. *)
module Reference = struct
  (* per-segment fill state: the free x-intervals (disjoint, in the order
     [occupy]'s [concat_map] leaves) and the placed cells, newest first *)
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
  let run ?(movebound_aware = true) (inst : Fbp_movebound.Instance.t)
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
        Legalizer.n_legalized = !n_legalized;
        n_spilled = !n_spilled;
        n_failed = !n_failed;
        avg_displacement = avg;
        max_displacement = worst;
        time = Fbp_util.Timer.now () -. t0;
      },
      final_failures )
end

let bits = Int64.bits_of_float

(* Legalize two copies of [pos], with the reference and with the flat
   legalizer: every position, every statistic but the time (the
   displacements as bits) and the failed cells must agree.  Returns the
   flat run's statistics. *)
let check_same_as_reference ?movebound_aware ctx inst regions pos ~piece_of_cell
    ~grid =
  let p_ref = Placement.copy pos and p_new = Placement.copy pos in
  let s_ref, f_ref =
    Reference.run ?movebound_aware inst regions p_ref ~piece_of_cell ~grid
  in
  let s_new, f_new =
    Legalizer.legalize ?movebound_aware inst regions p_new ~piece_of_cell ~grid
  in
  for c = 0 to Placement.n_cells pos - 1 do
    if bits p_ref.Placement.x.(c) <> bits p_new.Placement.x.(c)
       || bits p_ref.Placement.y.(c) <> bits p_new.Placement.y.(c)
    then
      Alcotest.failf "%s: cell %d at (%h, %h), the reference at (%h, %h)" ctx c
        p_new.Placement.x.(c) p_new.Placement.y.(c) p_ref.Placement.x.(c)
        p_ref.Placement.y.(c)
  done;
  let stats (s : Legalizer.stats) =
    Legalizer.
      ( s.n_legalized, s.n_spilled, s.n_failed,
        (bits s.avg_displacement, bits s.max_displacement) )
  in
  if stats s_ref <> stats s_new then
    Alcotest.failf "%s: statistics differ from the reference's" ctx;
  Alcotest.(check (list int)) (ctx ^ ": failed cells") f_ref f_new;
  s_new

let unassigned d = Array.make (Netlist.n_cells d.Design.netlist) (-1)

let regions_of (inst : Fbp_movebound.Instance.t) =
  Fbp_movebound.Regions.decompose ~chip:inst.Fbp_movebound.Instance.design.Design.chip
    inst.Fbp_movebound.Instance.movebounds

(* Placed designs, plain and movebounded (each legalized by the pieces
   the placer assigned, and from the generator's positions by the region
   under each cell), and piles up to 100% density and past it; every
   case also with [~movebound_aware:false]. *)
let test_flat_matches_reference () =
  let both ctx inst regions pos ~piece_of_cell ~grid =
    List.iter
      (fun aware ->
        ignore
          (check_same_as_reference ~movebound_aware:aware
             (Printf.sprintf "%s (aware %b)" ctx aware)
             inst regions pos ~piece_of_cell ~grid))
      [ true; false ]
  in
  List.iter
    (fun (name, inst, _, _) ->
      let d = inst.Fbp_movebound.Instance.design in
      both (name ^ ", generated") inst (regions_of inst) d.Design.initial
        ~piece_of_cell:(unassigned d) ~grid:None;
      match Fbp_core.Placer.place inst with
      | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
      | Ok rep ->
        both (name ^ ", placed") inst rep.Fbp_core.Placer.regions
          rep.Fbp_core.Placer.placement
          ~piece_of_cell:rep.Fbp_core.Placer.piece_of_cell
          ~grid:rep.Fbp_core.Placer.final_grid)
    (Test_core.model_cases ());
  List.iter
    (fun n ->
      let d = pile_design n in
      let inst = Fbp_movebound.Instance.unconstrained d in
      both (Printf.sprintf "pile of %d" n) inst (regions_of inst) d.Design.initial
        ~piece_of_cell:(unassigned d) ~grid:None)
    [ 20; 60; 61 ]

(* Cells given as (centre x, centre y, width, movebound) on the 10x6
   chip, with the inclusive movebound 0 over [island]. *)
let island_design ~island cells =
  let n = Array.length cells in
  let netlist =
    Test_core.netlist
      ~widths:(Array.map (fun (_, _, w, _) -> w) cells)
      ~movebound:(Array.map (fun (_, _, _, mb) -> mb) cells)
      [||]
  in
  let initial = Placement.create n in
  Array.iteri (fun c (x, y, _, _) -> Placement.set initial c (Point.make x y)) cells;
  {
    Fbp_movebound.Instance.design =
      { Design.name = "island"; chip; row_height = 1.0; netlist; blockages = [];
        initial; target_density = 1.0 };
    movebounds =
      [| Fbp_movebound.Movebound.make ~id:0 ~name:"isl"
           ~kind:Fbp_movebound.Movebound.Inclusive [ island ] |];
  }

(* The spill chain fires here, and the flat legalizer still follows the
   reference.  In the fixture, movebound-0 cells fill row 0 of the island
   [0,4]x[0,2] with 1.5-wide cells two sites apart, so the next 1.0-wide
   one fits only after compaction; unconstrained cells fill row 1, so the
   last movebound-0 cell evicts one of them into the rest of the chip.
   Random piles near full density, a third of the cells bound to random
   islands, exercise the chain further; the counters must show spills,
   compactions and cross-class evictions on the fixture and over the
   piles. *)
let test_flat_spill_chain_matches_reference () =
  let module Obs = Fbp_obs.Obs in
  let run ?movebound_aware ctx inst =
    let d = inst.Fbp_movebound.Instance.design in
    Obs.reset ();
    let st =
      check_same_as_reference ?movebound_aware ctx inst (regions_of inst)
        d.Design.initial ~piece_of_cell:(unassigned d) ~grid:None
    in
    ( st.Legalizer.n_spilled,
      Obs.counter_value "legalize.compactions",
      Obs.counter_value "legalize.evictions" )
  in
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Obs.enable ();
      let island = Rect.make ~x0:0.0 ~y0:0.0 ~x1:4.0 ~y1:2.0 in
      let fixture =
        island_design ~island
          [|
            (0.5, 1.5, 1.0, -1); (0.75, 0.5, 1.5, 0); (1.5, 1.5, 1.0, -1);
            (2.5, 1.5, 1.0, -1); (2.75, 0.5, 1.5, 0); (3.5, 1.5, 1.0, -1);
            (3.9, 0.5, 1.0, 0); (3.95, 1.5, 1.0, 0);
          |]
      in
      Alcotest.(check (triple int int int))
        "fixture: spills, compactions, evictions" (2, 1, 1)
        (run "fixture" fixture);
      ignore (run ~movebound_aware:false "fixture (aware false)" fixture);
      let spills = ref 0 and compactions = ref 0 and evictions = ref 0 in
      for seed = 0 to 39 do
        let rng = Fbp_util.Rng.create (500 + seed) in
        let widths = [| 0.5; 1.0; 1.5; 2.0; 3.0 |] in
        let x0 = float_of_int (Fbp_util.Rng.int rng 5) in
        let y0 = float_of_int (Fbp_util.Rng.int rng 4) in
        let island = Rect.make ~x0 ~y0 ~x1:(x0 +. 5.0) ~y1:(y0 +. 2.0) in
        let area = ref 0.0 and cells = ref [] in
        while !area < 56.0 do
          let w = widths.(Fbp_util.Rng.int rng 5) in
          let bound = Fbp_util.Rng.int rng 3 = 0 in
          let x, y =
            if bound then
              ( x0 +. Fbp_util.Rng.float rng *. 5.0,
                y0 +. Fbp_util.Rng.float rng *. 2.0 )
            else (Fbp_util.Rng.float rng *. 10.0, Fbp_util.Rng.float rng *. 6.0)
          in
          area := !area +. w;
          cells := (x, y, w, if bound then 0 else -1) :: !cells
        done;
        let inst = island_design ~island (Array.of_list (List.rev !cells)) in
        let s, c, e = run (Printf.sprintf "pile %d" seed) inst in
        spills := !spills + s;
        compactions := !compactions + c;
        evictions := !evictions + e;
        ignore (run ~movebound_aware:false (Printf.sprintf "pile %d (aware false)" seed) inst)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "piles: spills %d, compactions %d, evictions %d all fired"
           !spills !compactions !evictions)
        true
        (!spills > 0 && !compactions > 0 && !evictions > 0))

(* A run allocates per cell only its share of the run's arrays (the
   displacement baseline, the region buckets, the sweep order and the
   slots' columns), not a closure, boxed floats and a tuple per candidate
   interval: on this placed design it takes 37 words per cell with the
   placement copy, the list legalizer 291.  The second of two runs is
   measured, as in the other allocation budgets. *)
let test_legalize_allocation_budget () =
  let per_cell = 32 and slack = 16_384 in
  let d = Generator.quick ~seed:31 ~name:"lg" 1500 in
  let inst = Fbp_movebound.Instance.unconstrained d in
  match Fbp_core.Placer.place inst with
  | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
  | Ok rep ->
    let run () =
      let pos = Placement.copy rep.Fbp_core.Placer.placement in
      Legalizer.run inst rep.Fbp_core.Placer.regions pos
        ~piece_of_cell:rep.Fbp_core.Placer.piece_of_cell
        ~grid:rep.Fbp_core.Placer.final_grid
    in
    ignore (run ());
    let st, words = Test_core.allocated_words run in
    let cells = st.Legalizer.n_legalized + st.Legalizer.n_failed in
    if words > (per_cell * cells) + slack then
      Alcotest.failf "legalizing %d cells allocated %d words (%d per cell)" cells
        words (words / cells)

let suite =
  [
    Alcotest.test_case "rows basic" `Quick test_rows_basic;
    Alcotest.test_case "rows blockage splits" `Quick test_rows_blockage_splits;
    Alcotest.test_case "rows partial height dropped" `Quick test_rows_partial_height_dropped;
    Alcotest.test_case "legalize pile" `Quick test_legalize_pile;
    Alcotest.test_case "legalize 100% density" `Quick test_legalize_full_chip;
    Alcotest.test_case "legalize overfull reports" `Quick test_legalize_overfull_reports;
    Alcotest.test_case "legalize generated + movebounds" `Slow
      test_legalize_generated_design_with_movebounds;
    Alcotest.test_case "legalize small displacement" `Quick test_legalize_displacement_reasonable;
    Alcotest.test_case "flow legalizer pile" `Quick test_flow_legalizer_pile;
    Alcotest.test_case "flow legalizer on generated" `Slow test_flow_legalizer_on_generated;
    Alcotest.test_case "legalize flat matches reference" `Quick
      test_flat_matches_reference;
    Alcotest.test_case "legalize flat spill chain matches reference" `Quick
      test_flat_spill_chain_matches_reference;
    Alcotest.test_case "legalize allocation budget" `Quick
      test_legalize_allocation_budget;
    Alcotest.test_case "check detects overlap" `Quick test_check_detects_overlap;
    Alcotest.test_case "check audit counts match the reference" `Quick
      test_check_audit_counts;
  ]
