(* Tests for fbp_linalg: CSR assembly and CG on random SPD systems. *)

open Fbp_linalg

let check_float = Alcotest.(check (float 1e-6))

let test_vec_ops () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  check_float "dot" 32.0 (Vec.dot ~n:3 a b);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 ~n:3 a);
  check_float "norm_inf" 3.0 (Vec.norm_inf ~n:3 a);
  let y = Vec.copy b in
  Vec.axpy ~n:3 ~alpha:2.0 a y;
  Alcotest.(check (array (float 1e-9))) "axpy" [| 6.0; 9.0; 12.0 |] y;
  Vec.scale ~n:3 ~alpha:0.5 y;
  Alcotest.(check (array (float 1e-9))) "scale" [| 3.0; 4.5; 6.0 |] y;
  let out = Vec.create 3 in
  Vec.sub ~n:3 b a out;
  Alcotest.(check (array (float 1e-9))) "sub" [| 3.0; 3.0; 3.0 |] out

let test_csr_assembly_accumulates () =
  let b = Csr.builder 3 in
  Csr.add b ~row:0 ~col:1 2.0;
  Csr.add b ~row:0 ~col:1 3.0;
  Csr.add b ~row:2 ~col:0 1.0;
  Csr.add b ~row:1 ~col:1 4.0;
  let a = Csr.freeze b in
  Alcotest.(check int) "nnz after merge" 3 (Csr.nnz a);
  check_float "merged entry" 5.0 (Csr.get a 0 1);
  check_float "diag" 4.0 (Csr.get a 1 1);
  check_float "absent" 0.0 (Csr.get a 2 2)

(* ---------- dense diagonal ---------- *)

(* Every stored entry of [a] in CSR order, values as bits. *)
let entries a =
  let l = ref [] in
  Csr.iter_entries a (fun r c v -> l := (r, c, Int64.bits_of_float v) :: !l);
  List.rev !l

let check_entries label expected a =
  Alcotest.(check (list (triple int int int64))) label
    (List.map (fun (r, c, v) -> (r, c, Int64.bits_of_float v)) expected)
    (entries a);
  match Csr.validate a with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" label msg

(* The diagonal is summed densely, in push order from 0.0; a frozen matrix
   holds exactly the entries the pushes would have made as triplets. *)
let test_csr_dense_diagonal () =
  (* repeated diagonal pushes: ((0.1 + 0.2) + 0.3) is not 0.1 + (0.2 + 0.3) *)
  let b = Csr.builder 2 in
  List.iter (fun v -> Csr.add_diag b 1 v) [ 0.1; 0.2; 0.3 ];
  Csr.add b ~row:0 ~col:0 0.3;
  Csr.add b ~row:0 ~col:0 0.2;
  Csr.add b ~row:0 ~col:0 0.1;
  if Int64.equal (Int64.bits_of_float ((0.1 +. 0.2) +. 0.3))
       (Int64.bits_of_float (0.1 +. (0.2 +. 0.3)))
  then Alcotest.fail "the two summation orders must differ";
  check_entries "sums in push order"
    [ (0, 0, (0.3 +. 0.2) +. 0.1); (1, 1, (0.1 +. 0.2) +. 0.3) ]
    (Csr.freeze b);
  (* a zero push leaves no entry; pushes that cancel leave a stored 0.0 *)
  let b = Csr.builder 3 in
  Csr.add_diag b 0 0.0;
  Csr.add b ~row:1 ~col:2 0.0;
  Csr.add_diag b 2 1.5;
  Csr.add_diag b 2 (-1.5);
  check_entries "zero pushes" [ (2, 2, 0.0) ] (Csr.freeze b);
  (* rows whose only entry is the diagonal, around a spring *)
  let b = Csr.builder 4 in
  Csr.add_diag b 0 2.0;
  Csr.add_spring b 1 2 0.5;
  Csr.add_diag b 3 7.0;
  check_entries "diagonal-only rows"
    [ (0, 0, 2.0); (1, 1, 0.5); (1, 2, -0.5); (2, 1, -0.5); (2, 2, 0.5);
      (3, 3, 7.0) ]
    (Csr.freeze b);
  (* diagonal and off-diagonal pushes interleaved, duplicates on both *)
  let b = Csr.builder 3 in
  Csr.add b ~row:0 ~col:2 1.0;
  Csr.add_diag b 0 2.0;
  Csr.add b ~row:2 ~col:0 0.25;
  Csr.add b ~row:0 ~col:1 3.0;
  Csr.add_diag b 0 4.0;
  Csr.add b ~row:0 ~col:2 5.0;
  Csr.add_diag b 2 0.125;
  Csr.add b ~row:2 ~col:0 0.5;
  check_entries "interleaved"
    [ (0, 0, 6.0); (0, 1, 3.0); (0, 2, 6.0); (2, 0, 0.75); (2, 2, 0.125) ]
    (Csr.freeze b);
  (* a reset builder starts over, with no diagonal left from before *)
  Csr.reset b 2;
  Csr.add b ~row:1 ~col:0 1.0;
  check_entries "after reset" [ (1, 0, 1.0) ] (Csr.freeze b)

(* [refreeze] checks the diagonal pattern as well as the off-diagonal
   stream: one diagonal present at capture and absent later, or the
   reverse, is a mismatch, and a fresh capture then serves the new
   pattern. *)
let test_csr_refreeze_diagonal_pattern () =
  let stream ~diag_at_2 =
    let b = Csr.builder 3 in
    Csr.add_spring b 0 1 1.0;
    Csr.add b ~row:1 ~col:2 (-0.5);
    Csr.add b ~row:2 ~col:1 (-0.5);
    if diag_at_2 then Csr.add_diag b 2 3.0;
    b
  in
  List.iter
    (fun (captured, later) ->
      let label = Printf.sprintf "diagonal %b at capture, %b later" captured later in
      let _, s = Csr.freeze_capture (stream ~diag_at_2:captured) in
      (match Csr.refreeze s (stream ~diag_at_2:later) with
      | Some _ -> Alcotest.failf "%s: refreeze accepted" label
      | None -> ());
      let _, s' = Csr.freeze_capture (stream ~diag_at_2:later) in
      match Csr.refreeze s' (stream ~diag_at_2:later) with
      | None -> Alcotest.failf "%s: the recaptured structure is rejected" label
      | Some t ->
        Alcotest.(check (list (triple int int int64)))
          (label ^ ": recaptured equals freeze")
          (entries (Csr.freeze (stream ~diag_at_2:later)))
          (entries t))
    [ (true, false); (false, true) ]

(* [refreeze] checks the off-diagonal stream in order: the same triplets
   with two distinct ones swapped are a mismatch, whether the two share
   their column (only the row tells them apart), their row (only the
   column does) or neither. *)
let test_csr_refreeze_rejects_swapped_triplets () =
  let stream = [| (0, 1); (2, 1); (1, 0); (1, 2); (0, 2) |] in
  let builder order =
    let b = Csr.builder 3 in
    Array.iteri (fun i (r, c) -> Csr.add b ~row:r ~col:c (float_of_int (i + 1))) order;
    Csr.add_diag b 1 4.0;
    b
  in
  let _, s = Csr.freeze_capture (builder stream) in
  (match Csr.refreeze s (builder stream) with
   | None -> Alcotest.fail "refreeze rejected the captured stream"
   | Some _ -> ());
  List.iter
    (fun (i, j, label) ->
      let swapped = Array.copy stream in
      swapped.(i) <- stream.(j);
      swapped.(j) <- stream.(i);
      match Csr.refreeze s (builder swapped) with
      | Some _ -> Alcotest.failf "refreeze accepted a swap of %s" label
      | None -> ())
    [ (0, 1, "one column"); (2, 3, "one row"); (1, 4, "neither") ]

let test_csr_mul () =
  let b = Csr.builder 2 in
  Csr.add b ~row:0 ~col:0 2.0;
  Csr.add b ~row:0 ~col:1 1.0;
  Csr.add b ~row:1 ~col:1 3.0;
  let a = Csr.freeze b in
  let out = Vec.create 2 in
  Csr.mul a [| 1.0; 2.0 |] out;
  Alcotest.(check (array (float 1e-9))) "A x" [| 4.0; 6.0 |] out

let test_csr_spring_symmetric () =
  let b = Csr.builder 4 in
  Csr.add_spring b 0 1 2.0;
  Csr.add_spring b 1 3 1.0;
  Csr.add_diag b 2 5.0;
  let a = Csr.freeze b in
  Alcotest.(check bool) "symmetric" true (Csr.is_symmetric a);
  let d = Array.make 4 0.0 in
  Csr.diagonal a d;
  check_float "degree 1" 3.0 d.(1);
  check_float "anchor" 5.0 d.(2)

let test_cg_identity () =
  let b = Csr.builder 3 in
  for i = 0 to 2 do Csr.add_diag b i 1.0 done;
  let a = Csr.freeze b in
  let x = Vec.create 3 in
  let st = Cg.solve a [| 1.0; -2.0; 3.0 |] x in
  Alcotest.(check bool) "converged" true st.Cg.converged;
  Alcotest.(check (array (float 1e-6))) "identity solve" [| 1.0; -2.0; 3.0 |] x

let test_cg_small_spd () =
  (* [[4,1],[1,3]] x = [1,2]  =>  x = [1/11, 7/11] *)
  let b = Csr.builder 2 in
  Csr.add b ~row:0 ~col:0 4.0;
  Csr.add b ~row:0 ~col:1 1.0;
  Csr.add b ~row:1 ~col:0 1.0;
  Csr.add b ~row:1 ~col:1 3.0;
  let a = Csr.freeze b in
  let x = Vec.create 2 in
  let st = Cg.solve a [| 1.0; 2.0 |] x in
  Alcotest.(check bool) "converged" true st.Cg.converged;
  check_float "x0" (1.0 /. 11.0) x.(0);
  check_float "x1" (7.0 /. 11.0) x.(1)

(* Random Laplacian + diagonal systems (exactly the QP's structure). *)
let random_spd =
  QCheck.Gen.(
    int_range 3 25 >>= fun n ->
    let edge = triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range 0.1 5.0) in
    pair (list_size (int_range 1 60) edge) (list_size (return n) (float_range 0.1 2.0))
    >>= fun (edges, anchors) -> return (n, edges, anchors))

let prop_cg_solves_spd =
  QCheck.Test.make ~name:"cg solves random Laplacian+diag systems" ~count:100
    (QCheck.make random_spd)
    (fun (n, edges, anchors) ->
      let b = Csr.builder n in
      List.iter (fun (i, j, w) -> if i <> j then Csr.add_spring b i j w) edges;
      List.iteri (fun i w -> Csr.add_diag b i w) anchors;
      let a = Csr.freeze b in
      let rng = Fbp_util.Rng.create (n * 7919) in
      let rhs = Array.init n (fun _ -> Fbp_util.Rng.range rng (-5.0) 5.0) in
      let x = Vec.create n in
      let st = Cg.solve ~tol:1e-9 a rhs x in
      (* verify the residual independently *)
      let ax = Vec.create n in
      Csr.mul a x ax;
      let r = Vec.create n in
      Vec.sub ~n rhs ax r;
      st.Cg.converged && Vec.norm2 ~n r /. Float.max 1.0 (Vec.norm2 ~n rhs) < 1e-6)

let prop_csr_mul_matches_dense =
  QCheck.Test.make ~name:"csr mul matches dense multiply" ~count:100
    (QCheck.make
       QCheck.Gen.(
         int_range 1 8 >>= fun n ->
         list_size (int_range 0 30)
           (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range (-3.0) 3.0))
         >>= fun ts -> return (n, ts)))
    (fun (n, triplets) ->
      let b = Csr.builder n in
      let dense = Array.make_matrix n n 0.0 in
      List.iter
        (fun (i, j, v) ->
          Csr.add b ~row:i ~col:j v;
          dense.(i).(j) <- dense.(i).(j) +. v)
        triplets;
      let a = Csr.freeze b in
      let x = Array.init n (fun i -> float_of_int (i + 1)) in
      let out = Vec.create n in
      Csr.mul a x out;
      let ok = ref true in
      for i = 0 to n - 1 do
        let acc = ref 0.0 in
        for j = 0 to n - 1 do
          acc := !acc +. (dense.(i).(j) *. x.(j))
        done;
        if Float.abs (!acc -. out.(i)) > 1e-9 then ok := false
      done;
      !ok)

(* ---------- lockstep x/y CG ---------- *)

(* A connected Laplacian (a chain plus random springs) with a weak
   diagonal: SPD and slow enough to converge that the iteration counts of
   two right-hand sides can differ. *)
let random_laplacian rng n =
  let b = Csr.builder n in
  for i = 0 to n - 2 do
    Csr.add_spring b i (i + 1) (Fbp_util.Rng.range rng 0.5 2.0)
  done;
  for _ = 1 to 2 * n do
    let i = Fbp_util.Rng.int rng n and j = Fbp_util.Rng.int rng n in
    if i <> j then Csr.add_spring b i j (Fbp_util.Rng.range rng 0.1 3.0)
  done;
  for i = 0 to n - 1 do
    Csr.add_diag b i (Fbp_util.Rng.range rng 0.01 0.05)
  done;
  Csr.freeze b

let random_vec rng n scale =
  Array.init n (fun _ -> scale *. Fbp_util.Rng.range rng (-1.0) 1.0)

let bits = Int64.bits_of_float

(* [Cg.iterate2]'s result for one axis must equal [Cg.solve]'s bit for bit:
   the iterate, the iteration count, the residual and the verdict. *)
let check_axis ctx ((st : Cg.stats), v) ((ref_st : Cg.stats), ref_v) =
  Alcotest.(check int) (ctx ^ ": iterations") ref_st.Cg.iterations st.Cg.iterations;
  Alcotest.(check int64) (ctx ^ ": residual bits") (bits ref_st.Cg.residual)
    (bits st.Cg.residual);
  Alcotest.(check bool) (ctx ^ ": converged") ref_st.Cg.converged st.Cg.converged;
  Alcotest.(check int) (ctx ^ ": length") (Array.length ref_v) (Array.length v);
  Array.iteri
    (fun i r ->
      if bits r <> bits v.(i) then
        Alcotest.failf "%s: entry %d is %h, a lone solve gives %h" ctx i v.(i) r)
    ref_v

(* Lockstep solve of both axes from copies of [x0]/[y0], against two
   separate solves from copies of the same starts. *)
let compare_lockstep ?workspace ?max_iter ctx a bx x0 by y0 =
  let tol = 1e-9 in
  let x = Array.copy x0 and y = Array.copy y0 in
  let sx, sy =
    Cg.iterate2 ?workspace ~stagnate:(false, false)
      ~max_iter:(Option.value max_iter ~default:0) ~tol a bx x by y
  in
  let alone b v0 =
    let v = Array.copy v0 in
    let st = Cg.solve ~record:false ?max_iter ~tol a b v in
    (st, v)
  in
  let rx = alone bx x0 and ry = alone by y0 in
  check_axis (ctx ^ " x") (sx, x) rx;
  check_axis (ctx ^ " y") (sy, y) ry;
  (fst rx, fst ry)

let test_cg_lockstep_equals_two_solves () =
  let rng = Fbp_util.Rng.create 97 in
  let n = 60 in
  let a = random_laplacian rng n in
  let zero = Array.make n 0.0 in
  (* the residual is relative to max(1, ||b||), so a tiny right-hand side
     from zero starts close to the tolerance: the axes stop apart *)
  let bx = random_vec rng n 50.0 and by = random_vec rng n 1e-6 in
  let x0 = random_vec rng n 3.0 and y0 = zero in
  let sx, sy = compare_lockstep "different stops" a bx x0 by y0 in
  if sx.Cg.iterations = sy.Cg.iterations then
    Alcotest.failf "the axes must stop apart (both took %d iterations)"
      sx.Cg.iterations;
  (* a zero right-hand side from zero: that axis is done at iteration 0
     while the other runs on alone *)
  let _, sy0 = compare_lockstep "zero y" a bx x0 zero zero in
  Alcotest.(check int) "zero axis stops at iteration 0" 0 sy0.Cg.iterations;
  let sx0, _ = compare_lockstep "zero x" a zero zero by y0 in
  Alcotest.(check int) "zero axis stops at iteration 0" 0 sx0.Cg.iterations;
  (* a cap between the two stops: one axis converges, the other is cut *)
  let fast = min sx.Cg.iterations sy.Cg.iterations
  and slow = max sx.Cg.iterations sy.Cg.iterations in
  if slow - fast < 2 then
    Alcotest.failf "need two stops at least 2 apart, got %d and %d" fast slow;
  let cap = fast + 1 in
  let cx, cy = compare_lockstep ~max_iter:cap "capped" a bx x0 by y0 in
  Alcotest.(check int) "the slow axis hits the cap" cap
    (max cx.Cg.iterations cy.Cg.iterations);
  Alcotest.(check bool) "the fast axis converged below the cap" true
    (min cx.Cg.iterations cy.Cg.iterations = fast);
  (* one workspace for a larger system, then a smaller one: the stale
     tail of every vector must not reach the second solve *)
  let workspace = Cg.create_workspace () in
  ignore (compare_lockstep ~workspace "large" a bx x0 by y0);
  let m = 23 in
  let small = random_laplacian rng m in
  ignore
    (compare_lockstep ~workspace "small after large" small
       (random_vec rng m 20.0) (random_vec rng m 1.0) (random_vec rng m 0.5)
       (random_vec rng m 1.0))

let suite =
  [
    Alcotest.test_case "vec ops" `Quick test_vec_ops;
    Alcotest.test_case "csr accumulates duplicates" `Quick test_csr_assembly_accumulates;
    Alcotest.test_case "csr dense diagonal" `Quick test_csr_dense_diagonal;
    Alcotest.test_case "csr refreeze checks the diagonal pattern" `Quick
      test_csr_refreeze_diagonal_pattern;
    Alcotest.test_case "csr refreeze rejects swapped triplets" `Quick
      test_csr_refreeze_rejects_swapped_triplets;
    Alcotest.test_case "csr mul" `Quick test_csr_mul;
    Alcotest.test_case "csr springs symmetric" `Quick test_csr_spring_symmetric;
    Alcotest.test_case "cg identity" `Quick test_cg_identity;
    Alcotest.test_case "cg small spd" `Quick test_cg_small_spd;
    Prop.qcheck prop_cg_solves_spd;
    Prop.qcheck prop_csr_mul_matches_dense;
    Alcotest.test_case "cg lockstep equals two solves" `Quick
      test_cg_lockstep_equals_two_solves;
  ]
