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
    Alcotest.test_case "check detects overlap" `Quick test_check_detects_overlap;
    Alcotest.test_case "check audit counts match the reference" `Quick
      test_check_audit_counts;
  ]
