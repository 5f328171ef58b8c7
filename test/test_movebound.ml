(* Tests for fbp_movebound: Definition 1-2 semantics, the Figure 1 region
   decomposition, Theorem 1/2 feasibility (cross-checked against explicit
   enumeration of inequality (1)), and the legality audit. *)

open Fbp_geometry
open Fbp_movebound
open Fbp_netlist

let check_float = Alcotest.(check (float 1e-6))

let chip = Rect.make ~x0:0.0 ~y0:0.0 ~x1:10.0 ~y1:10.0

(* Build a minimal design carrying [cells] = (w, h, movebound id) triples. *)
let design_of_cells ?(density = 1.0) cells =
  let n = Array.length cells in
  let netlist =
    Test_core.netlist
      ~widths:(Array.map (fun (w, _, _) -> w) cells)
      ~heights:(Array.map (fun (_, h, _) -> h) cells)
      ~movebound:(Array.map (fun (_, _, mb) -> mb) cells)
      [||]
  in
  {
    Design.name = "test";
    chip;
    row_height = 1.0;
    netlist;
    blockages = [];
    initial = Placement.create n;
    target_density = density;
  }

(* The Figure 1 scenario: exclusive N, inclusive M, inclusive L with
   A(L) inside A(M). *)
let fig1_movebounds () =
  [|
    Movebound.make ~id:0 ~name:"N" ~kind:Movebound.Exclusive
      [ Rect.make ~x0:0.0 ~y0:6.0 ~x1:3.0 ~y1:9.0 ];
    Movebound.make ~id:1 ~name:"M" ~kind:Movebound.Inclusive
      [ Rect.make ~x0:4.0 ~y0:1.0 ~x1:9.0 ~y1:6.0 ];
    Movebound.make ~id:2 ~name:"L" ~kind:Movebound.Inclusive
      [ Rect.make ~x0:5.0 ~y0:2.0 ~x1:7.0 ~y1:4.0 ];
  |]

let test_movebound_basics () =
  let m = Movebound.make ~id:0 ~name:"m" ~kind:Movebound.Inclusive
      [ Rect.make ~x0:0.0 ~y0:0.0 ~x1:2.0 ~y1:2.0;
        Rect.make ~x0:2.0 ~y0:0.0 ~x1:4.0 ~y1:1.0 ] in
  Alcotest.(check bool) "contains inner" true
    (Movebound.contains_rect m (Rect.make ~x0:0.5 ~y0:0.2 ~x1:3.0 ~y1:0.8));
  Alcotest.(check bool) "not contains outside" false
    (Movebound.contains_rect m (Rect.make ~x0:3.0 ~y0:0.5 ~x1:4.0 ~y1:1.5));
  Alcotest.(check bool) "exclusive flag" false (Movebound.is_exclusive m);
  Alcotest.check_raises "empty area" (Invalid_argument "Movebound.make: empty area")
    (fun () -> ignore (Movebound.make ~id:1 ~name:"e" ~kind:Movebound.Exclusive []))

let test_instance_validate_and_normalize () =
  (* exclusive overlapping an inclusive movebound must be detected... *)
  let mbs =
    [|
      Movebound.make ~id:0 ~name:"E" ~kind:Movebound.Exclusive
        [ Rect.make ~x0:0.0 ~y0:0.0 ~x1:4.0 ~y1:4.0 ];
      Movebound.make ~id:1 ~name:"I" ~kind:Movebound.Inclusive
        [ Rect.make ~x0:2.0 ~y0:2.0 ~x1:6.0 ~y1:6.0 ];
    |]
  in
  let inst = { Instance.design = design_of_cells [| (1.0, 1.0, 0); (1.0, 1.0, 1) |];
               movebounds = mbs } in
  (match Instance.validate inst with
   | Ok () -> Alcotest.fail "overlap not detected"
   | Error _ -> ());
  (* ...and fixed by normalize *)
  match Instance.normalize inst with
  | Error e -> Alcotest.fail e
  | Ok inst' ->
    (match Instance.validate inst' with
     | Ok () -> ()
     | Error e -> Alcotest.fail e);
    check_float "inclusive area shrunk" 12.0
      (Rect_set.area inst'.Instance.movebounds.(1).Movebound.area)

let test_normalize_vanishing_movebound () =
  let mbs =
    [|
      Movebound.make ~id:0 ~name:"E" ~kind:Movebound.Exclusive
        [ Rect.make ~x0:0.0 ~y0:0.0 ~x1:4.0 ~y1:4.0 ];
      Movebound.make ~id:1 ~name:"I" ~kind:Movebound.Inclusive
        [ Rect.make ~x0:1.0 ~y0:1.0 ~x1:3.0 ~y1:3.0 ];
    |]
  in
  let inst = { Instance.design = design_of_cells [| (1.0, 1.0, 1) |]; movebounds = mbs } in
  match Instance.normalize inst with
  | Ok _ -> Alcotest.fail "vanishing movebound accepted"
  | Error _ -> ()

let test_fig1_regions () =
  let regions = Regions.decompose ~chip (fig1_movebounds ()) in
  (* expected maximal regions: N's area, L's area ({L,M}), M minus L ({M}),
     and the default rest — 4 regions *)
  Alcotest.(check int) "four maximal regions" 4 (Regions.n_regions regions);
  let at x y = Regions.region_at regions (Point.make x y) in
  let r_n = at 1.0 7.0 and r_l = at 6.0 3.0 and r_m = at 8.0 5.0 and r_d = at 1.0 1.0 in
  Alcotest.(check int) "N owner" 0 r_n.Regions.signature.Regions.exclusive_owner;
  Alcotest.(check (list int)) "L signature" [ 1; 2 ] r_l.Regions.signature.Regions.inclusive;
  Alcotest.(check (list int)) "M-only signature" [ 1 ] r_m.Regions.signature.Regions.inclusive;
  Alcotest.(check (list int)) "default signature" [] r_d.Regions.signature.Regions.inclusive;
  (* admissibility semantics *)
  Alcotest.(check bool) "N cell in N" true (Regions.admissible r_n ~mb:0);
  Alcotest.(check bool) "default cell not in N" false (Regions.admissible r_n ~mb:(-1));
  Alcotest.(check bool) "M cell in L-region" true (Regions.admissible r_l ~mb:1);
  Alcotest.(check bool) "L cell in L-region" true (Regions.admissible r_l ~mb:2);
  Alcotest.(check bool) "L cell not in M-only region" false (Regions.admissible r_m ~mb:2);
  Alcotest.(check bool) "default cell in M (inclusive)" true (Regions.admissible r_m ~mb:(-1));
  Alcotest.(check bool) "N cell cannot leave N" false (Regions.admissible r_d ~mb:0);
  (* covering movebounds per Definition 2 *)
  Alcotest.(check (list int)) "L-region covered by M and L" [ 1; 2 ]
    (Regions.covering_movebounds r_l)

let test_regions_partition_chip () =
  let regions = Regions.decompose ~chip (fig1_movebounds ()) in
  let total =
    Array.fold_left
      (fun acc (r : Regions.region) -> acc +. Rect_set.area r.Regions.area)
      0.0 regions.Regions.regions
  in
  check_float "regions tile the chip" (Rect.area chip) total

let prop_region_signature_matches_geometry =
  (* For random movebound layouts, the signature at random points must agree
     with direct containment tests. *)
  QCheck.Test.make ~name:"region signature = direct geometry" ~count:60
    (QCheck.make
       QCheck.Gen.(
         let rect =
           map
             (fun (x, y, w, h) ->
               Rect.of_corner ~x:(8.0 *. x) ~y:(8.0 *. y) ~w:(0.5 +. (4.0 *. w))
                 ~h:(0.5 +. (4.0 *. h)))
             (quad (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)
                (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
         in
         pair (list_size (int_range 1 4) rect) (int_range 0 1000)))
    (fun (rects, seed) ->
      (* clip to chip and build inclusive movebounds (exclusives are covered
         by the fig1 unit test; inclusive overlap is the tricky case) *)
      let rects = List.filter_map (fun r -> Rect.intersect r chip) rects in
      if rects = [] then true
      else begin
        let mbs =
          Array.of_list
            (List.mapi
               (fun i r ->
                 Movebound.make ~id:i ~name:(string_of_int i) ~kind:Movebound.Inclusive [ r ])
               rects)
        in
        let regions = Regions.decompose ~chip mbs in
        let rng = Fbp_util.Rng.create seed in
        let ok = ref true in
        for _ = 1 to 50 do
          let p =
            Point.make (Fbp_util.Rng.range rng 0.01 9.99) (Fbp_util.Rng.range rng 0.01 9.99)
          in
          let r = Regions.region_at regions p in
          let expected =
            List.sort compare
              (Array.to_list mbs
              |> List.filter_map (fun (m : Movebound.t) ->
                     if Rect_set.contains_point m.Movebound.area p then
                       Some m.Movebound.id
                     else None))
          in
          (* skip points within epsilon of a boundary where both answers are
             legitimately ambiguous *)
          let near_boundary =
            List.exists
              (fun (rc : Rect.t) ->
                Float.abs (p.Point.x -. rc.Rect.x0) < 1e-6
                || Float.abs (p.Point.x -. rc.Rect.x1) < 1e-6
                || Float.abs (p.Point.y -. rc.Rect.y0) < 1e-6
                || Float.abs (p.Point.y -. rc.Rect.y1) < 1e-6)
              rects
          in
          if (not near_boundary) && r.Regions.signature.Regions.inclusive <> expected then
            ok := false
        done;
        !ok
      end)

(* ---------- Feasibility (Theorems 1-2) ---------- *)

let mb_rect id name kind r = Movebound.make ~id ~name ~kind [ r ]

let test_feasibility_simple_feasible () =
  (* movebound of area 4 (density 1) with 3 units of cells *)
  let mbs = [| mb_rect 0 "A" Movebound.Inclusive (Rect.make ~x0:0.0 ~y0:0.0 ~x1:2.0 ~y1:2.0) |] in
  let cells = [| (1.0, 1.0, 0); (1.0, 1.0, 0); (1.0, 1.0, 0); (2.0, 1.0, -1) |] in
  let inst = { Instance.design = design_of_cells cells; movebounds = mbs } in
  match Feasibility.check_instance inst with
  | Error e -> Alcotest.fail e
  | Ok (Feasibility.Feasible, _) -> ()
  | Ok (Feasibility.Infeasible _, _) -> Alcotest.fail "expected feasible"

let test_feasibility_overfull_movebound () =
  let mbs = [| mb_rect 0 "A" Movebound.Inclusive (Rect.make ~x0:0.0 ~y0:0.0 ~x1:2.0 ~y1:2.0) |] in
  let cells = [| (3.0, 1.0, 0); (2.5, 1.0, 0) |] in
  (* 5.5 units into area 4 *)
  let inst = { Instance.design = design_of_cells cells; movebounds = mbs } in
  match Feasibility.check_instance inst with
  | Error e -> Alcotest.fail e
  | Ok (Feasibility.Feasible, _) -> Alcotest.fail "expected infeasible"
  | Ok (Feasibility.Infeasible { classes; demand; capacity }, _) ->
    Alcotest.(check (list int)) "witness is class 0" [ 0 ] classes;
    check_float "demand" 5.5 demand;
    check_float "capacity" 4.0 capacity

let test_feasibility_exclusive_steals_capacity () =
  (* Chip 100 total; exclusive movebound of 96 leaves 4 for 6 units of
     unconstrained cells -> infeasible even though the chip is big enough. *)
  let mbs = [| mb_rect 0 "E" Movebound.Exclusive (Rect.make ~x0:0.0 ~y0:0.0 ~x1:9.6 ~y1:10.0) |] in
  let cells = [| (1.0, 1.0, 0); (3.0, 2.0, -1) |] in
  let inst = { Instance.design = design_of_cells cells; movebounds = mbs } in
  match Feasibility.check_instance inst with
  | Error e -> Alcotest.fail e
  | Ok (Feasibility.Feasible, _) -> Alcotest.fail "expected infeasible"
  | Ok (Feasibility.Infeasible { classes; _ }, _) ->
    (* the unconstrained class (id 1 = n_movebounds) is the witness *)
    Alcotest.(check (list int)) "witness is unconstrained class" [ 1 ] classes

let test_feasibility_nested_exclusive_infeasible () =
  (* The paper notes nested overlapping movebounds are infeasible in the
     exclusive case: normalize makes the inner bound vanish. *)
  let mbs =
    [|
      mb_rect 0 "outer" Movebound.Exclusive (Rect.make ~x0:0.0 ~y0:0.0 ~x1:6.0 ~y1:6.0);
      mb_rect 1 "inner" Movebound.Inclusive (Rect.make ~x0:1.0 ~y0:1.0 ~x1:3.0 ~y1:3.0);
    |]
  in
  let cells = [| (1.0, 1.0, 0); (1.0, 1.0, 1) |] in
  let inst = { Instance.design = design_of_cells cells; movebounds = mbs } in
  match Feasibility.check_instance inst with
  | Error _ -> ()  (* normalize reports the vanishing movebound *)
  | Ok (Feasibility.Infeasible _, _) -> ()
  | Ok (Feasibility.Feasible, _) -> Alcotest.fail "expected infeasible/ill-formed"

(* Cross-check Theorem 1: flow verdict == explicit enumeration of (1) over
   all subsets of classes. *)
let prop_feasibility_matches_enumeration =
  QCheck.Test.make ~name:"flow feasibility = subset inequality (1)" ~count:80
    (QCheck.make
       QCheck.Gen.(
         let rect =
           map
             (fun (x, y, w, h) ->
               Rect.of_corner ~x:(6.0 *. x) ~y:(6.0 *. y) ~w:(1.0 +. (3.0 *. w))
                 ~h:(1.0 +. (3.0 *. h)))
             (quad (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)
                (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
         in
         triple (pair rect rect)
           (list_size (int_range 1 6) (pair (float_range 0.5 6.0) (int_range (-1) 1)))
           unit))
    (fun ((r0, r1), cell_specs, ()) ->
      let mbs =
        [| Movebound.make ~id:0 ~name:"A" ~kind:Movebound.Inclusive [ r0 ];
           Movebound.make ~id:1 ~name:"B" ~kind:Movebound.Inclusive [ r1 ] |]
      in
      let cells =
        Array.of_list (List.map (fun (w, mb) -> (w, 1.0, mb)) cell_specs)
      in
      let inst = { Instance.design = design_of_cells cells; movebounds = mbs } in
      match Feasibility.check_instance inst with
      | Error _ -> true (* normalize can only fail with exclusives: not here *)
      | Ok (verdict, regions) ->
        let density = 1.0 in
        let class_area = Instance.area_by_class inst in
        (* enumerate all subsets of {A, B, unconstrained} *)
        let feasible_enum = ref true in
        for mask = 1 to 7 do
          let in_subset i = mask land (1 lsl i) <> 0 in
          let demand = ref 0.0 in
          for i = 0 to 2 do
            if in_subset i then demand := !demand +. class_area.(i)
          done;
          (* capacity of regions admissible to at least one subset class *)
          let cap = ref 0.0 in
          Array.iter
            (fun (r : Regions.region) ->
              let admissible_to_subset =
                (in_subset 0 && Regions.admissible r ~mb:0)
                || (in_subset 1 && Regions.admissible r ~mb:1)
                || (in_subset 2 && Regions.admissible r ~mb:(-1))
              in
              if admissible_to_subset then
                cap := !cap +. (density *. Rect_set.area r.Regions.area))
            regions.Regions.regions;
          if !demand > !cap +. 1e-6 then feasible_enum := false
        done;
        (match verdict with
         | Feasibility.Feasible -> !feasible_enum
         | Feasibility.Infeasible _ -> not !feasible_enum))

(* ---------- Legality ---------- *)

let test_legality_report () =
  let mbs = fig1_movebounds () in
  let cells = [| (1.0, 1.0, 1); (1.0, 1.0, -1); (1.0, 1.0, 2) |] in
  let design = design_of_cells cells in
  let inst = { Instance.design; movebounds = mbs } in
  let p = Placement.create 3 in
  (* cell 0 (bound M) inside M; cell 1 (default) on N (exclusive!);
     cell 2 (bound L) outside L *)
  Placement.set p 0 (Point.make 6.0 3.0);
  Placement.set p 1 (Point.make 1.0 7.0);
  Placement.set p 2 (Point.make 9.5 9.5);
  let report = Legality.check inst p in
  Alcotest.(check int) "two violations" 2 report.Legality.n_violations;
  Alcotest.(check bool) "not legal" false (Legality.is_legal inst p);
  (* fix both *)
  Placement.set p 1 (Point.make 5.0 8.0);
  Placement.set p 2 (Point.make 6.0 3.0);
  Alcotest.(check bool) "legal after fix" true (Legality.is_legal inst p);
  Alcotest.(check int) "all inside chip" 0 (Legality.count_outside_chip inst p)

let suite =
  [
    Alcotest.test_case "movebound basics" `Quick test_movebound_basics;
    Alcotest.test_case "instance validate + normalize" `Quick test_instance_validate_and_normalize;
    Alcotest.test_case "normalize vanishing movebound" `Quick test_normalize_vanishing_movebound;
    Alcotest.test_case "figure-1 regions" `Quick test_fig1_regions;
    Alcotest.test_case "regions partition chip" `Quick test_regions_partition_chip;
    Prop.qcheck prop_region_signature_matches_geometry;
    Alcotest.test_case "feasibility: simple feasible" `Quick test_feasibility_simple_feasible;
    Alcotest.test_case "feasibility: overfull movebound" `Quick test_feasibility_overfull_movebound;
    Alcotest.test_case "feasibility: exclusive steals capacity" `Quick
      test_feasibility_exclusive_steals_capacity;
    Alcotest.test_case "feasibility: nested exclusive infeasible" `Quick
      test_feasibility_nested_exclusive_infeasible;
    Prop.qcheck prop_feasibility_matches_enumeration;
    Alcotest.test_case "legality report" `Quick test_legality_report;
  ]
