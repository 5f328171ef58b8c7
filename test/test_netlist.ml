(* Tests for fbp_netlist: structure validation, HPWL, the synthetic design
   generator's invariants, and Bookshelf round-trips. *)

open Fbp_netlist
open Fbp_geometry

let check_float = Alcotest.(check (float 1e-6))

(* A tiny 3-cell, 2-net fixture. *)
let tiny () =
  Test_core.netlist ~names:[| "a"; "b"; "c" |] ~widths:[| 1.0; 2.0; 1.0 |]
    [|
      (1.0, [| (0, 0.0, 0.0); (1, 0.0, 0.0) |]);
      (2.0, [| (1, 0.5, 0.0); (2, 0.0, 0.0); (-1, 10.0, 10.0) |]);
    |]

let test_netlist_basics () =
  let nl = tiny () in
  Alcotest.(check int) "cells" 3 (Netlist.n_cells nl);
  Alcotest.(check int) "nets" 2 (Netlist.n_nets nl);
  Alcotest.(check int) "pins" 5 (Netlist.n_pins nl);
  check_float "size" 2.0 (Netlist.size nl 1);
  check_float "movable area" 4.0 (Netlist.total_movable_area nl);
  (match Netlist.validate nl with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check (array int)) "incidence offsets" [| 0; 1; 3; 4 |]
    nl.Netlist.cell_net_start;
  Alcotest.(check (array int)) "incident nets, ascending per cell"
    [| 0; 0; 1; 1 |] nl.Netlist.cell_net

let test_netlist_validate_rejects () =
  let bad = Test_core.netlist ~widths:[| 1.0; -1.0; 1.0 |] [||] in
  (match Netlist.validate bad with
   | Ok () -> Alcotest.fail "negative width accepted"
   | Error _ -> ());
  let dangling = [| (1.0, [| (0, 0.0, 0.0); (99, 0.0, 0.0) |]) |] in
  match Test_core.netlist ~widths:[| 1.0 |] dangling with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dangling pin accepted"

let test_hpwl () =
  let nl = tiny () in
  let p = Placement.create 3 in
  Placement.set p 0 (Point.make 0.0 0.0);
  Placement.set p 1 (Point.make 3.0 4.0);
  Placement.set p 2 (Point.make 5.0 1.0);
  (* net 0: bbox (0,0)-(3,4): 7. net 1: pins (3.5,4),(5,1),(10,10):
     bbox width 6.5 height 9 -> 15.5, weight 2 -> 31 *)
  check_float "net0" 7.0 (Hpwl.of_net nl p 0);
  check_float "net1" 31.0 (Hpwl.of_net nl p 1);
  check_float "total" 38.0 (Hpwl.total nl p);
  check_float "millions" 38e-6 (Hpwl.total_millions nl p)

let test_hpwl_single_pin_net () =
  let nl =
    Test_core.netlist ~widths:[| 1.0; 2.0; 1.0 |] [| (1.0, [| (0, 0.0, 0.0) |]) |]
  in
  let p = Placement.create 3 in
  check_float "degenerate net is free" 0.0 (Hpwl.total nl p)

let test_placement_helpers () =
  let nl = tiny () in
  let a = Placement.create 3 and b = Placement.create 3 in
  Placement.set b 0 (Point.make 1.0 1.0);
  check_float "avg displacement" (2.0 /. 3.0) (Placement.avg_displacement a b);
  check_float "max displacement" 2.0 (Placement.max_displacement a b);
  let r = Placement.cell_rect nl b 0 in
  check_float "cell rect centered" 0.5 r.Rect.x0;
  (match Placement.center_of_gravity nl b [ 0; 1 ] with
   | None -> Alcotest.fail "expected cog"
   | Some c ->
     (* masses 1 at (1,1) and 2 at (0,0) *)
     check_float "cog x" (1.0 /. 3.0) c.Point.x);
  Alcotest.(check bool) "cog of empty" true
    (Placement.center_of_gravity nl b [] = None)

(* ---------- Generator ---------- *)

let test_generator_deterministic () =
  let d1 = Generator.quick ~seed:5 500 and d2 = Generator.quick ~seed:5 500 in
  Alcotest.(check (array (float 0.0))) "same golden x"
    d1.Design.initial.Placement.x d2.Design.initial.Placement.x;
  Alcotest.(check int) "same net count"
    (Netlist.n_nets d1.Design.netlist) (Netlist.n_nets d2.Design.netlist)

let test_generator_valid_design () =
  let d = Generator.quick ~seed:2 800 in
  (match Design.validate d with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "whitespace >= 1" true (Design.whitespace_ratio d >= 1.0);
  (* golden placement inside chip *)
  let nl = d.Design.netlist in
  for c = 0 to Netlist.n_cells nl - 1 do
    let r = Placement.cell_rect nl d.Design.initial c in
    if not (Rect.contains d.Design.chip r) then
      Alcotest.failf "cell %d outside chip: %s" c (Rect.to_string r)
  done

let test_generator_net_structure () =
  let d = Generator.quick ~seed:3 1000 in
  let nl = d.Design.netlist in
  Alcotest.(check bool) "has nets" true (Netlist.n_nets nl > 500);
  (* all nets connect at least 2 distinct endpoints *)
  for i = 0 to Netlist.n_nets nl - 1 do
    let lo = nl.Netlist.net_start.(i) in
    let distinct =
      List.sort_uniq compare
        (List.init (Netlist.degree nl i) (fun k -> nl.Netlist.pin_cell.(lo + k)))
    in
    Alcotest.(check bool) "net nondegenerate" true (List.length distinct >= 2)
  done;
  (* average degree in a sane band *)
  let avg = float_of_int (Netlist.n_pins nl) /. float_of_int (Netlist.n_nets nl) in
  Alcotest.(check bool) "avg degree in [2,6]" true (avg >= 2.0 && avg <= 6.0)

let test_generator_macros_disjoint () =
  let d =
    Generator.generate
      { Generator.default_params with n_cells = 600; n_macros = 4; seed = 11 }
  in
  let rec pairs = function
    | [] -> ()
    | m :: rest ->
      List.iter
        (fun m' -> Alcotest.(check bool) "macros disjoint" false (Rect.overlaps m m'))
        rest;
      pairs rest
  in
  pairs d.Design.blockages;
  List.iter
    (fun m -> Alcotest.(check bool) "macro inside chip" true (Rect.contains d.Design.chip m))
    d.Design.blockages

let test_generator_golden_hpwl_beats_random () =
  (* The golden placement must be substantially better than a random shuffle
     of the same positions — otherwise the netlist carries no locality and
     placement quality comparisons would be meaningless. *)
  let d = Generator.quick ~seed:4 1500 in
  let nl = d.Design.netlist in
  let golden = Hpwl.total nl d.Design.initial in
  let shuffled = Placement.copy d.Design.initial in
  let rng = Fbp_util.Rng.create 99 in
  let perm = Array.init (Netlist.n_cells nl) (fun i -> i) in
  Fbp_util.Rng.shuffle rng perm;
  let px = Array.copy shuffled.Placement.x and py = Array.copy shuffled.Placement.y in
  Array.iteri
    (fun i j ->
      shuffled.Placement.x.(i) <- px.(j);
      shuffled.Placement.y.(i) <- py.(j))
    perm;
  let random = Hpwl.total nl shuffled in
  Alcotest.(check bool)
    (Printf.sprintf "golden (%.0f) < 0.6 * random (%.0f)" golden random)
    true
    (golden < 0.6 *. random)

(* ---------- Clustering (BestChoice) ---------- *)

let test_clustering_ratio () =
  let d = Generator.quick ~seed:41 ~name:"clu" 1000 in
  let cl = Clustering.best_choice ~ratio:5.0 d.Design.netlist in
  let nc = Netlist.n_cells cl.Clustering.coarse in
  Alcotest.(check bool)
    (Printf.sprintf "coarse cells %d near n/5" nc)
    true
    (nc >= 180 && nc <= 400);
  (* area conserved *)
  Alcotest.(check (float 1e-3)) "area conserved"
    (Netlist.total_movable_area d.Design.netlist
    +. (* fixed cells keep area too *)
    (let acc = ref 0.0 in
     for c = 0 to Netlist.n_cells d.Design.netlist - 1 do
       if d.Design.netlist.Netlist.fixed.(c) then
         acc := !acc +. Netlist.size d.Design.netlist c
     done;
     !acc))
    (let acc = ref 0.0 in
     for g = 0 to nc - 1 do
       acc := !acc +. Netlist.size cl.Clustering.coarse g
     done;
     !acc);
  (* partition: every original cell in exactly one cluster *)
  let seen = Array.make (Netlist.n_cells d.Design.netlist) false in
  Array.iter
    (List.iter (fun c ->
         Alcotest.(check bool) "member unique" false seen.(c);
         seen.(c) <- true))
    cl.Clustering.members;
  Alcotest.(check bool) "all cells covered" true (Array.for_all (fun b -> b) seen);
  (match Netlist.validate cl.Clustering.coarse with
   | Ok () -> ()
   | Error e -> Alcotest.fail e)

let test_clustering_fixed_not_merged () =
  let d =
    Generator.generate
      { Generator.default_params with n_cells = 400; n_macros = 3; seed = 42 }
  in
  (* mark some cells fixed *)
  let nl = d.Design.netlist in
  for c = 0 to 9 do
    nl.Netlist.fixed.(c) <- true
  done;
  let cl = Clustering.best_choice ~ratio:4.0 nl in
  for c = 0 to 9 do
    let g = cl.Clustering.cluster_of.(c) in
    Alcotest.(check int) "fixed cell alone in its cluster" 1
      (List.length cl.Clustering.members.(g))
  done

let test_clustering_roundtrip_positions () =
  let d = Generator.quick ~seed:43 ~name:"clu2" 600 in
  let cl = Clustering.best_choice ~ratio:3.0 d.Design.netlist in
  let coarse_pos = Clustering.coarse_placement cl d.Design.netlist d.Design.initial in
  let out = Placement.create (Netlist.n_cells d.Design.netlist) in
  Clustering.expand cl coarse_pos out;
  (* every member sits at its cluster position *)
  Array.iteri
    (fun c g ->
      Alcotest.(check (float 1e-9)) "x" coarse_pos.Placement.x.(g) out.Placement.x.(c))
    cl.Clustering.cluster_of

let test_clustering_coarse_hpwl_sane () =
  (* clustering must not blow HPWL up: the coarse netlist under the coarse
     placement should cost no more than the flat netlist *)
  let d = Generator.quick ~seed:44 ~name:"clu3" 1200 in
  let cl = Clustering.best_choice ~ratio:5.0 d.Design.netlist in
  let coarse_pos = Clustering.coarse_placement cl d.Design.netlist d.Design.initial in
  let flat = Hpwl.total d.Design.netlist d.Design.initial in
  let coarse = Hpwl.total cl.Clustering.coarse coarse_pos in
  Alcotest.(check bool)
    (Printf.sprintf "coarse %.0f <= flat %.0f" coarse flat)
    true (coarse <= flat +. 1e-6)

(* ---------- Bookshelf ---------- *)

(* The first way [d'] differs from [d] in what the Bookshelf format
   carries, with every float compared as its bits. *)
let design_diff (d : Design.t) (d' : Design.t) =
  let nl = d.Design.netlist and nl' = d'.Design.netlist in
  let bits = Array.map Int64.bits_of_float in
  let same_floats a a' = bits a = bits a' in
  let bits_of x = Int64.bits_of_float x in
  let rect_bits (r : Rect.t) = bits [| r.Rect.x0; r.Rect.y0; r.Rect.x1; r.Rect.y1 |] in
  let rects (d : Design.t) = List.map rect_bits (d.Design.chip :: d.Design.blockages) in
  List.find_opt
    (fun (_, same) -> not same)
    [
      ("names", nl.Netlist.names = nl'.Netlist.names);
      ("widths", same_floats nl.Netlist.widths nl'.Netlist.widths);
      ("heights", same_floats nl.Netlist.heights nl'.Netlist.heights);
      ("fixed flags", nl.Netlist.fixed = nl'.Netlist.fixed);
      ("movebounds", nl.Netlist.movebound = nl'.Netlist.movebound);
      ("net offsets", nl.Netlist.net_start = nl'.Netlist.net_start);
      ("net weights", same_floats nl.Netlist.net_weight nl'.Netlist.net_weight);
      ("pin cells", nl.Netlist.pin_cell = nl'.Netlist.pin_cell);
      ("pin dx", same_floats nl.Netlist.pin_dx nl'.Netlist.pin_dx);
      ("pin dy", same_floats nl.Netlist.pin_dy nl'.Netlist.pin_dy);
      ("incidence",
       nl.Netlist.cell_net_start = nl'.Netlist.cell_net_start
       && nl.Netlist.cell_net = nl'.Netlist.cell_net);
      ("initial x",
       same_floats d.Design.initial.Placement.x d'.Design.initial.Placement.x);
      ("initial y",
       same_floats d.Design.initial.Placement.y d'.Design.initial.Placement.y);
      ("HPWL",
       bits_of (Hpwl.total nl d.Design.initial)
       = bits_of (Hpwl.total nl' d'.Design.initial));
      ("chip and blockages", rects d = rects d');
      ("row height", bits_of d.Design.row_height = bits_of d'.Design.row_height);
      ("density", bits_of d.Design.target_density = bits_of d'.Design.target_density);
    ]
  |> Option.map fst

let round_trip d =
  let path = Filename.temp_file "fbp" ".book" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bookshelf.write_file path d;
      Bookshelf.read_file path)

let test_bookshelf_roundtrip () =
  let d = Generator.quick ~seed:7 120 in
  match design_diff d (round_trip d) with
  | None -> ()
  | Some what -> Alcotest.failf "round trip changed the %s" what

let prop_bookshelf_roundtrip_random =
  QCheck.Test.make ~name:"bookshelf roundtrip over random designs" ~count:15
    QCheck.(pair (int_range 50 250) (int_range 1 1000))
    (fun (n, seed) ->
      let d = Generator.quick ~seed ~name:"fuzz" n in
      design_diff d (round_trip d) = None)

let test_bookshelf_rejects_garbage () =
  let path = Filename.temp_file "fbp" ".book" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "chip 0 0 10 10\nfrobnicate 1 2 3\n";
      close_out oc;
      match Bookshelf.read_file path with
      | exception Bookshelf.Parse_error (2, _) -> ()
      | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "garbage accepted")

(* [Bookshelf.read_file] of a file holding [text]. *)
let read_text text =
  let path = Filename.temp_file "fbp" ".book" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Bookshelf.read_file path)

(* Pin indices and net pin counts are read in place when they are plain
   decimal; every other spelling still goes through [int_of_string_opt],
   so each span reads as it always did: the pin's cell or the net's pin
   count, or the same message on the same line. *)
let test_bookshelf_integer_spans () =
  let outcome text get =
    match read_text text with
    | d -> Ok (get d.Design.netlist)
    | exception Bookshelf.Parse_error (line, msg) -> Error (line, msg)
  in
  let cells = "chip 0 0 10 10\ncells 2\ncell a 1 1 1 1 movable -\ncell b 1 1 2 2 movable -\n" in
  let pin span =
    outcome
      (cells ^ "nets 1\nnet 1 1\npin " ^ span ^ " 0 0\nblockages 0\n")
      (fun nl -> nl.Netlist.pin_cell.(0))
  in
  let net span =
    outcome
      (cells ^ "nets 1\nnet 1 " ^ span ^ "\npin 0 0 0\nblockages 0\n")
      (fun nl -> Netlist.degree nl 0)
  in
  let outcome_t = Alcotest.(result int (pair int string)) in
  List.iter
    (fun (span, expected) ->
      Alcotest.check outcome_t ("pin index " ^ span) expected (pin span))
    [
      ("1", Ok 1); ("-1", Ok (-1)); ("-0", Ok 0); ("01", Ok 1); ("+1", Ok 1);
      ("0x1", Ok 1); ("0b1", Ok 1); ("1_0", Error (7, "pin references cell 10 of 2"));
      ("-2", Error (7, "bad pin cell index"));
      ("100000000000000000", Error (7, "pin references cell 100000000000000000 of 2"));
      ("1000000000000000000", Error (7, "pin references cell 1000000000000000000 of 2"));
      ("9999999999999999999", Error (7, "bad integer \"9999999999999999999\""));
      ("-", Error (7, "bad integer \"-\"")); ("--1", Error (7, "bad integer \"--1\""));
      ("1a", Error (7, "bad integer \"1a\"")); ("a", Error (7, "bad integer \"a\""));
    ];
  List.iter
    (fun (span, expected) ->
      Alcotest.check outcome_t ("net pin count " ^ span) expected (net span))
    [
      ("1", Ok 1); ("+1", Ok 1); ("0x1", Ok 1); ("001", Ok 1);
      ("-1", Error (6, "negative count \"-1\""));
      ("-0x1", Error (6, "negative count \"-0x1\""));
      ("1_0", Error (8, "truncated file: last net incomplete"));
      ("-", Error (6, "bad integer \"-\""));
      ("99999999999999999999", Error (6, "bad integer \"99999999999999999999\""));
    ];
  (* the keyword is matched in place, the field count still decides *)
  Alcotest.check outcome_t "pin with a missing field"
    (Error (7, "malformed \"pin\" record (wrong field count)"))
    (outcome (cells ^ "nets 1\nnet 1 1\npin 0 0\n") (fun _ -> 0));
  Alcotest.check outcome_t "a keyword sharing a prefix"
    (Error (7, "unknown record \"pins\""))
    (outcome (cells ^ "nets 1\nnet 1 1\npins 0 0 0\n") (fun _ -> 0))

(* Reading a design allocates per line little beyond the line itself,
   the floats it parses and the columns it fills: no closure per line,
   and no keyword or index substring for a pin or a net.  This design
   reads at 42 words per line; cutting out every keyword and index and
   making two closures per line took 59. *)
(* Cell coordinates and dimensions, pin offsets and net weights are read
   in place when they are plain decimal fractions that fit in 2^53 with at
   most 22 fraction digits; every other spelling still goes through
   [float_of_string_opt].  Either way each field is [float_of_string]'s
   value bit for bit: random doubles at three precisions, the 2^53 edge,
   signed zeros, the fraction-digit edge and spellings only
   [float_of_string] reads. *)
let test_bookshelf_float_spans () =
  let rng = Random.State.make [| 29 |] in
  let random () =
    let mag = Random.State.float rng 1.0 *. (10.0 ** float_of_int (Random.State.int rng 31 - 12)) in
    if Random.State.bool rng then -.mag else mag
  in
  let corpus =
    List.concat
      [ List.concat_map
          (fun _ ->
            let v = random () in
            [ Printf.sprintf "%.17g" v; Printf.sprintf "%.15g" v; Printf.sprintf "%.3f" v ])
          (List.init 400 Fun.id);
        [ "9007199254740991"; "9007199254740992"; "9007199254740993";
          "-9007199254740992"; "-9007199254740993"; "900719925474099.2";
          "900719925474099.3"; "0.9007199254740993"; "-0"; "0"; "0."; "-0.";
          "-0.0"; ".5"; "-.5"; "1."; "007.25"; "-000.5";
          "0.0000000000000000000001"; "0.00000000000000000000001";
          "1.0000000000000000000000"; "1.00000000000000000000000";
          "1_0"; "+1"; "1e5"; "-1e5"; "1.5e-3"; "0x1p3"; "1E2" ] ]
  in
  let n = List.length corpus in
  let nonneg s = if String.length s > 0 && Char.equal s.[0] '-' then "1" else s in
  let b = Buffer.create 65536 in
  Buffer.add_string b "chip -10 -10 10 10\n";
  Buffer.add_string b (Printf.sprintf "cells %d\n" n);
  List.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf "cell c%d %s %s %s %s movable -\n" i (nonneg s) (nonneg s) s s))
    corpus;
  Buffer.add_string b (Printf.sprintf "nets %d\n" n);
  List.iter
    (fun s -> Buffer.add_string b (Printf.sprintf "net %s 1\npin 0 %s %s\n" (nonneg s) s s))
    corpus;
  Buffer.add_string b "blockages 0\n";
  let d = read_text (Buffer.contents b) in
  let nl = d.Design.netlist and p = d.Design.initial in
  let bits = Int64.bits_of_float in
  List.iteri
    (fun i s ->
      let expected field s got =
        let want = float_of_string s in
        if bits want <> bits got then
          Alcotest.failf "%s %S read as %h, float_of_string gives %h" field s got want
      in
      expected "cell x" s p.Placement.x.(i);
      expected "cell y" s p.Placement.y.(i);
      expected "cell width" (nonneg s) nl.Netlist.widths.(i);
      expected "cell height" (nonneg s) nl.Netlist.heights.(i);
      expected "pin dx" s nl.Netlist.pin_dx.(i);
      expected "pin dy" s nl.Netlist.pin_dy.(i);
      expected "net weight" (nonneg s) nl.Netlist.net_weight.(i))
    corpus;
  (* the messages of the fields read in place are unchanged *)
  let cells = "chip 0 0 10 10\ncells 1\n" in
  let failure text =
    match read_text text with
    | _ -> None
    | exception Bookshelf.Parse_error (line, msg) -> Some (line, msg)
  in
  let outcome_t = Alcotest.(option (pair int string)) in
  Alcotest.check outcome_t "negative width" (Some (3, "negative dimension \"-1.5\""))
    (failure (cells ^ "cell a -1.5 1 0 0 movable -\n"));
  Alcotest.check outcome_t "negative height in hex" (Some (3, "negative dimension \"-0x1\""))
    (failure (cells ^ "cell a 1 -0x1 0 0 movable -\n"));
  Alcotest.check outcome_t "bad coordinate" (Some (3, "bad number \"1.5.\""))
    (failure (cells ^ "cell a 1 1 1.5. 0 movable -\n"));
  Alcotest.check outcome_t "nan offset" (Some (6, "NaN value \"nan\""))
    (failure (cells ^ "cell a 1 1 0 0 movable -\nnets 1\nnet 1 1\npin 0 nan 0\n"));
  Alcotest.check outcome_t "negative weight" (Some (5, "negative net weight"))
    (failure (cells ^ "cell a 1 1 0 0 movable -\nnets 1\nnet -2.5 1\npin 0 0 0\n"))

let test_bookshelf_read_allocation () =
  let d = Generator.quick ~seed:3 ~name:"reader" 1500 in
  let path = Filename.temp_file "fbp" ".book" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bookshelf.write_file path d;
      let lines =
        In_channel.with_open_bin path (fun ic ->
            let n = ref 0 in
            String.iter (fun ch -> if ch = '\n' then incr n) (In_channel.input_all ic);
            !n)
      in
      ignore (Bookshelf.read_file path);
      let _, words = Test_core.allocated_words (fun () -> Bookshelf.read_file path) in
      if words > 48 * lines then
        Alcotest.failf "reading %d lines allocated %d words (%.1f per line)" lines
          words (float_of_int words /. float_of_int lines))

(* The reference total: a fold over the nets of each net's bounding box,
   taken in pin order over (x, y) pairs. *)
let reference_total (nl : Netlist.t) (p : Placement.t) =
  List.fold_left
    (fun acc i ->
      let pins =
        List.init (Netlist.degree nl i) (fun d -> nl.Netlist.net_start.(i) + d)
      in
      let h =
        if List.length pins <= 1 then 0.0
        else begin
          let x0 = ref infinity and x1 = ref neg_infinity in
          let y0 = ref infinity and y1 = ref neg_infinity in
          List.iter
            (fun k ->
              let c = nl.Netlist.pin_cell.(k) in
              let dx = nl.Netlist.pin_dx.(k) and dy = nl.Netlist.pin_dy.(k) in
              let x, y =
                if c < 0 then (dx, dy)
                else (p.Placement.x.(c) +. dx, p.Placement.y.(c) +. dy)
              in
              if x < !x0 then x0 := x;
              if x > !x1 then x1 := x;
              if y < !y0 then y0 := y;
              if y > !y1 then y1 := y)
            pins;
          nl.Netlist.net_weight.(i) *. (!x1 -. !x0 +. !y1 -. !y0)
        end
      in
      acc +. h)
    0.0
    (List.init (Netlist.n_nets nl) Fun.id)

(* A warmed [Hpwl.total] allocates nothing but its boxed result, and
   equals the reference fold as a double. *)
let test_hpwl_allocation_free () =
  let d = Generator.quick ~seed:3 ~name:"hpwl" 1500 in
  let nl = d.Design.netlist and p = d.Design.initial in
  ignore (Hpwl.total nl p);
  let h, words = Test_core.allocated_words (fun () -> Hpwl.total nl p) in
  if words > 16 then
    Alcotest.failf "Hpwl.total allocated %d words on %d nets" words
      (Netlist.n_nets nl);
  Alcotest.(check int64) "equals the reference fold"
    (Int64.bits_of_float (reference_total nl p))
    (Int64.bits_of_float h)

(* The connectivity of a parsed design is flat: its net, pin and
   incidence arrays together hold at most 5 words per pin (pin records,
   each offset a boxed float, took 11.3 per pin for the nets alone on the
   parsed plain_large design). *)
let test_netlist_storage_bound () =
  let d = round_trip (Generator.quick ~seed:3 ~name:"storage" 1500) in
  let nl = d.Design.netlist in
  let words =
    List.fold_left
      (fun acc a -> acc + Obj.reachable_words a)
      0
      [ Obj.repr nl.Netlist.net_start; Obj.repr nl.Netlist.net_weight;
        Obj.repr nl.Netlist.pin_cell; Obj.repr nl.Netlist.pin_dx;
        Obj.repr nl.Netlist.pin_dy; Obj.repr nl.Netlist.cell_net_start;
        Obj.repr nl.Netlist.cell_net ]
  in
  let per_pin = float_of_int words /. float_of_int (Netlist.n_pins nl) in
  if per_pin > 5.0 then
    Alcotest.failf "%d words for %d pins: %.2f per pin" words (Netlist.n_pins nl)
      per_pin

let suite =
  [
    Alcotest.test_case "netlist basics" `Quick test_netlist_basics;
    Alcotest.test_case "netlist validation rejects" `Quick test_netlist_validate_rejects;
    Alcotest.test_case "hpwl known values" `Quick test_hpwl;
    Alcotest.test_case "hpwl single-pin net" `Quick test_hpwl_single_pin_net;
    Alcotest.test_case "hpwl total allocation-free" `Quick
      test_hpwl_allocation_free;
    Alcotest.test_case "placement helpers" `Quick test_placement_helpers;
    Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "generator valid design" `Quick test_generator_valid_design;
    Alcotest.test_case "generator net structure" `Quick test_generator_net_structure;
    Alcotest.test_case "generator macros disjoint" `Quick test_generator_macros_disjoint;
    Alcotest.test_case "golden beats random" `Quick test_generator_golden_hpwl_beats_random;
    Alcotest.test_case "bookshelf roundtrip" `Quick test_bookshelf_roundtrip;
    Alcotest.test_case "netlist storage bound" `Quick test_netlist_storage_bound;
    Alcotest.test_case "clustering ratio + partition" `Quick test_clustering_ratio;
    Alcotest.test_case "clustering keeps fixed cells" `Quick test_clustering_fixed_not_merged;
    Alcotest.test_case "clustering expand roundtrip" `Quick test_clustering_roundtrip_positions;
    Alcotest.test_case "clustering coarse hpwl sane" `Quick test_clustering_coarse_hpwl_sane;
    Prop.qcheck prop_bookshelf_roundtrip_random;
    Alcotest.test_case "bookshelf rejects garbage" `Quick test_bookshelf_rejects_garbage;
    Alcotest.test_case "bookshelf integer spans" `Quick test_bookshelf_integer_spans;
    Alcotest.test_case "bookshelf read allocation" `Quick test_bookshelf_read_allocation;
    Alcotest.test_case "bookshelf floats read in place" `Quick test_bookshelf_float_spans;
  ]
