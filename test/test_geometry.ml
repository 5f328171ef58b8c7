(* Tests for fbp_geometry: rectangle algebra, disjoint rectangle sets and the
   Hanan grid decomposition (Lemma 1 of the paper). *)

open Fbp_geometry

let check_float = Alcotest.(check (float 1e-6))

(* ---------- Rect ---------- *)

let test_rect_basic () =
  let r = Rect.of_corner ~x:1.0 ~y:2.0 ~w:3.0 ~h:4.0 in
  check_float "width" 3.0 (Rect.width r);
  check_float "height" 4.0 (Rect.height r);
  check_float "area" 12.0 (Rect.area r);
  let c = Rect.center r in
  check_float "cx" 2.5 c.Point.x;
  check_float "cy" 4.0 c.Point.y

let test_rect_invalid () =
  Alcotest.check_raises "negative extent" (Invalid_argument "Rect.make: negative extent")
    (fun () -> ignore (Rect.make ~x0:1.0 ~y0:0.0 ~x1:0.0 ~y1:1.0))

let test_rect_intersect () =
  let a = Rect.make ~x0:0.0 ~y0:0.0 ~x1:4.0 ~y1:4.0 in
  let b = Rect.make ~x0:2.0 ~y0:2.0 ~x1:6.0 ~y1:6.0 in
  (match Rect.intersect a b with
  | None -> Alcotest.fail "expected overlap"
  | Some i -> check_float "overlap area" 4.0 (Rect.area i));
  let c = Rect.make ~x0:4.0 ~y0:0.0 ~x1:5.0 ~y1:1.0 in
  Alcotest.(check bool) "touching edges don't overlap" false (Rect.overlaps a c);
  Alcotest.(check bool) "touching intersect = None" true (Rect.intersect a c = None)

let test_rect_contains () =
  let a = Rect.make ~x0:0.0 ~y0:0.0 ~x1:4.0 ~y1:4.0 in
  Alcotest.(check bool) "contains inner" true
    (Rect.contains a (Rect.make ~x0:1.0 ~y0:1.0 ~x1:3.0 ~y1:3.0));
  Alcotest.(check bool) "contains itself" true (Rect.contains a a);
  Alcotest.(check bool) "not contains overflow" false
    (Rect.contains a (Rect.make ~x0:1.0 ~y0:1.0 ~x1:5.0 ~y1:3.0))

let test_rect_clamp_dist () =
  let r = Rect.make ~x0:0.0 ~y0:0.0 ~x1:2.0 ~y1:2.0 in
  let p = Point.make 5.0 1.0 in
  let q = Rect.clamp_point r p in
  check_float "clamped x" 2.0 q.Point.x;
  check_float "clamped y" 1.0 q.Point.y;
  check_float "L1 dist" 3.0 (Rect.dist_l1_point r p);
  check_float "dist inside = 0" 0.0 (Rect.dist_l1_point r (Point.make 1.0 1.0))

let test_rect_subtract_disjoint_pieces () =
  let a = Rect.make ~x0:0.0 ~y0:0.0 ~x1:4.0 ~y1:4.0 in
  let b = Rect.make ~x0:1.0 ~y0:1.0 ~x1:3.0 ~y1:3.0 in
  let pieces = Rect.subtract a b in
  Alcotest.(check int) "4 pieces for interior hole" 4 (List.length pieces);
  let total = List.fold_left (fun acc r -> acc +. Rect.area r) 0.0 pieces in
  check_float "area identity" (Rect.area a -. Rect.area b) total;
  List.iteri
    (fun i ri ->
      List.iteri
        (fun j rj ->
          if i < j then Alcotest.(check bool) "pieces disjoint" false (Rect.overlaps ri rj))
        pieces)
    pieces

let rect_gen =
  QCheck.Gen.(
    let coord = float_bound_inclusive 10.0 in
    map
      (fun (x, y, w, h) -> Rect.of_corner ~x ~y ~w:(w +. 0.1) ~h:(h +. 0.1))
      (quad coord coord (float_bound_inclusive 5.0) (float_bound_inclusive 5.0)))

let rect_arb = QCheck.make ~print:Rect.to_string rect_gen

let prop_subtract_area =
  QCheck.Test.make ~name:"rect subtract area identity" ~count:300
    (QCheck.pair rect_arb rect_arb)
    (fun (a, b) ->
      let pieces = Rect.subtract a b in
      let total = List.fold_left (fun acc r -> acc +. Rect.area r) 0.0 pieces in
      Float.abs (total -. (Rect.area a -. Rect.intersection_area a b)) < 1e-6)

let prop_subtract_no_overlap_with_b =
  QCheck.Test.make ~name:"rect subtract pieces avoid b" ~count:300
    (QCheck.pair rect_arb rect_arb)
    (fun (a, b) ->
      List.for_all (fun p -> not (Rect.overlaps p b)) (Rect.subtract a b))

let test_rect_adjacent () =
  let a = Rect.make ~x0:0.0 ~y0:0.0 ~x1:1.0 ~y1:1.0 in
  let right = Rect.make ~x0:1.0 ~y0:0.0 ~x1:2.0 ~y1:1.0 in
  let above = Rect.make ~x0:0.0 ~y0:1.0 ~x1:1.0 ~y1:2.0 in
  let corner = Rect.make ~x0:1.0 ~y0:1.0 ~x1:2.0 ~y1:2.0 in
  let far = Rect.make ~x0:5.0 ~y0:5.0 ~x1:6.0 ~y1:6.0 in
  Alcotest.(check bool) "right adjacent" true (Rect.adjacent a right);
  Alcotest.(check bool) "above adjacent" true (Rect.adjacent a above);
  Alcotest.(check bool) "corner-only not adjacent" false (Rect.adjacent a corner);
  Alcotest.(check bool) "far not adjacent" false (Rect.adjacent a far)

(* ---------- Rect_set ---------- *)

let test_set_union_overlapping () =
  let s =
    Rect_set.of_rects
      [ Rect.make ~x0:0.0 ~y0:0.0 ~x1:2.0 ~y1:2.0;
        Rect.make ~x0:1.0 ~y0:1.0 ~x1:3.0 ~y1:3.0 ]
  in
  check_float "union area (inclusion-exclusion)" 7.0 (Rect_set.area s);
  let rs = Rect_set.rects s in
  List.iteri
    (fun i ri ->
      List.iteri
        (fun j rj ->
          if i < j then Alcotest.(check bool) "disjoint" false (Rect.overlaps ri rj))
        rs)
    rs

let test_set_covers () =
  let l_shape =
    Rect_set.of_rects
      [ Rect.make ~x0:0.0 ~y0:0.0 ~x1:3.0 ~y1:1.0;
        Rect.make ~x0:0.0 ~y0:1.0 ~x1:1.0 ~y1:3.0 ]
  in
  Alcotest.(check bool) "covers inner rect spanning both arms" true
    (Rect_set.covers_rect l_shape (Rect.make ~x0:0.0 ~y0:0.0 ~x1:1.0 ~y1:2.0));
  Alcotest.(check bool) "does not cover the missing corner" false
    (Rect_set.covers_rect l_shape (Rect.make ~x0:2.0 ~y0:2.0 ~x1:3.0 ~y1:3.0));
  Alcotest.(check bool) "covers whole L as a set" true
    (Rect_set.covers l_shape l_shape)

let test_set_subtract () =
  let s = Rect_set.of_rect (Rect.make ~x0:0.0 ~y0:0.0 ~x1:4.0 ~y1:4.0) in
  let hole = Rect_set.of_rect (Rect.make ~x0:1.0 ~y0:1.0 ~x1:2.0 ~y1:2.0) in
  let diff = Rect_set.subtract s hole in
  check_float "subtract area" 15.0 (Rect_set.area diff);
  Alcotest.(check bool) "hole not contained" false
    (Rect_set.contains_point diff (Fbp_geometry.Point.make 1.5 1.5));
  Alcotest.(check bool) "rest contained" true
    (Rect_set.contains_point diff (Fbp_geometry.Point.make 3.0 3.0))

let test_set_project () =
  let s =
    Rect_set.of_rects
      [ Rect.make ~x0:0.0 ~y0:0.0 ~x1:1.0 ~y1:1.0;
        Rect.make ~x0:5.0 ~y0:0.0 ~x1:6.0 ~y1:1.0 ]
  in
  let q = Rect_set.project_point s (Point.make 5.5 3.0) in
  check_float "projects to near rect x" 5.5 q.Point.x;
  check_float "projects to near rect y" 1.0 q.Point.y;
  Alcotest.(check bool) "projection lies in set" true (Rect_set.contains_point s q)

let test_set_cog () =
  let s =
    Rect_set.of_rects
      [ Rect.make ~x0:0.0 ~y0:0.0 ~x1:2.0 ~y1:1.0;
        Rect.make ~x0:0.0 ~y0:1.0 ~x1:1.0 ~y1:3.0 ]
  in
  let c = Rect_set.center_of_gravity s in
  (* masses: 2 at (1, 0.5); 2 at (0.5, 2) *)
  check_float "cog x" 0.75 c.Point.x;
  check_float "cog y" 1.25 c.Point.y

let prop_set_area_superadditive =
  QCheck.Test.make ~name:"rect_set union area <= sum of areas" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 6) rect_arb)
    (fun rs ->
      let s = Rect_set.of_rects rs in
      let sum = List.fold_left (fun acc r -> acc +. Rect.area r) 0.0 rs in
      Rect_set.area s <= sum +. 1e-6)

let prop_set_covers_members =
  QCheck.Test.make ~name:"rect_set covers each input rect" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 6) rect_arb)
    (fun rs ->
      let s = Rect_set.of_rects rs in
      List.for_all (fun r -> Rect_set.covers_rect s r) rs)

let prop_subtract_then_disjoint =
  QCheck.Test.make ~name:"rect_set subtract leaves no overlap" ~count:200
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 1 4) rect_arb)
       (QCheck.list_of_size (QCheck.Gen.int_range 1 4) rect_arb))
    (fun (xs, ys) ->
      let a = Rect_set.of_rects xs and b = Rect_set.of_rects ys in
      let d = Rect_set.subtract a b in
      (not (Rect_set.overlaps d b))
      && Float.abs (Rect_set.area d +. Rect_set.overlap_area a b -. Rect_set.area a) < 1e-5)

(* ---------- Hanan ---------- *)

let chip = Rect.make ~x0:0.0 ~y0:0.0 ~x1:10.0 ~y1:10.0

let test_hanan_cells_partition_chip () =
  let rects =
    [ Rect.make ~x0:2.0 ~y0:2.0 ~x1:5.0 ~y1:6.0;
      Rect.make ~x0:4.0 ~y0:1.0 ~x1:8.0 ~y1:3.0 ]
  in
  let h = Hanan.create ~chip rects in
  let total = ref 0.0 in
  Hanan.iter_cells h (fun ~ix:_ ~iy:_ r -> total := !total +. Rect.area r);
  check_float "cells tile the chip" (Rect.area chip) !total;
  (* every cell is entirely inside or outside each input rect *)
  Hanan.iter_cells h (fun ~ix:_ ~iy:_ c ->
      List.iter
        (fun r ->
          let inside = Rect.contains r c in
          let outside = not (Rect.overlaps r c) in
          Alcotest.(check bool) "inside xor outside" true (inside || outside))
        rects)

let test_hanan_indexing () =
  let h = Hanan.create ~chip [ Rect.make ~x0:3.0 ~y0:4.0 ~x1:7.0 ~y1:8.0 ] in
  Alcotest.(check int) "n_cells = nx*ny" (Hanan.nx h * Hanan.ny h) (Hanan.n_cells h);
  for idx = 0 to Hanan.n_cells h - 1 do
    let ix, iy = Hanan.cell_coords h idx in
    Alcotest.(check int) "roundtrip" idx (Hanan.cell_index h ~ix ~iy)
  done

let test_hanan_neighbors () =
  let h = Hanan.create ~chip [ Rect.make ~x0:5.0 ~y0:5.0 ~x1:6.0 ~y1:6.0 ] in
  (* 3x3 cells; center cell has 4 neighbours, corner has 2 *)
  Alcotest.(check int) "center degree" 4 (List.length (Hanan.neighbors h ~ix:1 ~iy:1));
  Alcotest.(check int) "corner degree" 2 (List.length (Hanan.neighbors h ~ix:0 ~iy:0))

let prop_hanan_quadratic_bound =
  (* Lemma 1: decomposition has O(l^2) rectangles, concretely <= (2l+1)^2 *)
  QCheck.Test.make ~name:"hanan cell count quadratic bound" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 0 8) rect_arb)
    (fun rs ->
      let h = Hanan.create ~chip:(Rect.make ~x0:(-1.0) ~y0:(-1.0) ~x1:16.0 ~y1:16.0) rs in
      let l = List.length rs in
      Hanan.n_cells h <= ((2 * l) + 1) * ((2 * l) + 1))

let suite =
  [
    Alcotest.test_case "rect basics" `Quick test_rect_basic;
    Alcotest.test_case "rect invalid" `Quick test_rect_invalid;
    Alcotest.test_case "rect intersect" `Quick test_rect_intersect;
    Alcotest.test_case "rect contains" `Quick test_rect_contains;
    Alcotest.test_case "rect clamp/dist" `Quick test_rect_clamp_dist;
    Alcotest.test_case "rect subtract pieces" `Quick test_rect_subtract_disjoint_pieces;
    Prop.qcheck prop_subtract_area;
    Prop.qcheck prop_subtract_no_overlap_with_b;
    Alcotest.test_case "rect adjacency" `Quick test_rect_adjacent;
    Alcotest.test_case "set union overlapping" `Quick test_set_union_overlapping;
    Alcotest.test_case "set covers (L-shape)" `Quick test_set_covers;
    Alcotest.test_case "set subtract" `Quick test_set_subtract;
    Alcotest.test_case "set project point" `Quick test_set_project;
    Alcotest.test_case "set center of gravity" `Quick test_set_cog;
    Prop.qcheck prop_set_area_superadditive;
    Prop.qcheck prop_set_covers_members;
    Prop.qcheck prop_subtract_then_disjoint;
    Alcotest.test_case "hanan tiles chip" `Quick test_hanan_cells_partition_chip;
    Alcotest.test_case "hanan indexing" `Quick test_hanan_indexing;
    Alcotest.test_case "hanan neighbors" `Quick test_hanan_neighbors;
    Prop.qcheck prop_hanan_quadratic_bound;
  ]
