(* Plain-text interchange format for designs, loosely modelled on the
   Bookshelf files of the ISPD contests but self-contained in one file.

   Grammar (one record per line, '#' starts a comment):

     chip <x0> <y0> <x1> <y1>
     rowheight <h>
     density <d>
     cells <n>
     cell <name> <w> <h> <x> <y> <movable|fixed> <mbid|->
     nets <m>
     net <weight> <npins>
     pin <cellindex> <dx> <dy>        (cellindex -1 = pad, dx/dy absolute)
     blockages <k>
     blockage <x0> <y0> <x1> <y1>

   The writer emits records in exactly this order; the reader accepts them in
   any order as long as counts precede their items. *)

open Fbp_geometry

let write_channel oc (d : Design.t) =
  let nl = d.netlist in
  let p = d.initial in
  Printf.fprintf oc "# fbp design: %s\n" d.Design.name;
  Printf.fprintf oc "chip %.17g %.17g %.17g %.17g\n" d.chip.Rect.x0 d.chip.Rect.y0
    d.chip.Rect.x1 d.chip.Rect.y1;
  Printf.fprintf oc "rowheight %.17g\n" d.row_height;
  Printf.fprintf oc "density %.17g\n" d.target_density;
  Printf.fprintf oc "cells %d\n" nl.Netlist.n_cells;
  for c = 0 to nl.Netlist.n_cells - 1 do
    Printf.fprintf oc "cell %s %.17g %.17g %.17g %.17g %s %s\n" nl.Netlist.names.(c)
      nl.Netlist.widths.(c) nl.Netlist.heights.(c) p.Placement.x.(c)
      p.Placement.y.(c)
      (if nl.Netlist.fixed.(c) then "fixed" else "movable")
      (if nl.Netlist.movebound.(c) < 0 then "-" else string_of_int nl.Netlist.movebound.(c))
  done;
  Printf.fprintf oc "nets %d\n" (Netlist.n_nets nl);
  for i = 0 to Netlist.n_nets nl - 1 do
    Printf.fprintf oc "net %.17g %d\n" nl.Netlist.net_weight.(i) (Netlist.degree nl i);
    for k = nl.Netlist.net_start.(i) to nl.Netlist.net_start.(i + 1) - 1 do
      Printf.fprintf oc "pin %d %.17g %.17g\n" nl.Netlist.pin_cell.(k)
        nl.Netlist.pin_dx.(k) nl.Netlist.pin_dy.(k)
    done
  done;
  Printf.fprintf oc "blockages %d\n" (List.length d.blockages);
  List.iter
    (fun (b : Rect.t) ->
      Printf.fprintf oc "blockage %.17g %.17g %.17g %.17g\n" b.Rect.x0 b.Rect.y0 b.Rect.x1
        b.Rect.y1)
    d.blockages

let write_file path d =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel oc d)

exception Parse_error of int * string

let parse_failure line msg = raise (Parse_error (line, msg))

(* [ensure a n fill]: [a], or a copy grown by doubling, with room for
   [n] entries. *)
let ensure a n fill =
  if n <= Array.length a then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let trim a n = if Array.length a = n then a else Array.sub a 0 n

(* A record has at most 8 fields; a longer line is malformed whatever
   its fields are, so only its count matters. *)
let max_tokens = 8

(* Splits [line] up to its first '#' at spaces into [starts]/[stops]
   (the first [max_tokens] spans) and returns the token count. *)
let split line starts stops =
  let len = String.length line in
  let n = ref 0 and i = ref 0 in
  while !i < len && line.[!i] <> '#' do
    if line.[!i] = ' ' then incr i
    else begin
      let s = !i in
      while !i < len && line.[!i] <> ' ' && line.[!i] <> '#' do incr i done;
      if !n < max_tokens then begin
        starts.(!n) <- s;
        stops.(!n) <- !i
      end;
      incr n
    end
  done;
  !n

(* Is the span [line.[start] .. line.[stop - 1]] the string [kw]? *)
let span_is line start stop kw =
  let n = String.length kw in
  stop - start = n
  && begin
    let i = ref 0 in
    while !i < n && Char.equal line.[start + !i] kw.[!i] do incr i done;
    !i = n
  end

(* The value of the span [line.[start] .. line.[stop - 1]] when it is
   plain decimal: an optional '-' and 1 to 18 digits, which cannot
   overflow.  Any other span gives [min_int], which no plain span
   reaches, and is left to [int_of_string_opt]. *)
let plain_decimal line start stop =
  let neg = start < stop && Char.equal line.[start] '-' in
  let first = if neg then start + 1 else start in
  if first >= stop || stop - first > 18 then min_int
  else begin
    let v = ref 0 and i = ref first in
    while !i < stop && line.[!i] >= '0' && line.[!i] <= '9' do
      v := (10 * !v) + (Char.code line.[!i] - Char.code '0');
      incr i
    done;
    if !i < stop then min_int else if neg then - !v else !v
  end

(* 10^f for f in [0, 22]: each exact as a double (5^22 < 2^53). *)
let pow10 = Array.init 23 (fun f -> float_of_string ("1e" ^ string_of_int f))

let max_mantissa = 1 lsl 53

(* The value of the span [line.[start] .. line.[stop - 1]] when it is a
   plain decimal fraction: an optional '-', digits, then optionally '.'
   and at most 22 digits, all its digits reading as one integer m <= 2^53.
   The value is [float m /. 10^f] for f fraction digits, negated for a
   '-'.  Both operands are exact doubles and IEEE division rounds
   correctly, as strtod does, so this is [float_of_string]'s result bit
   for bit.  Any other span (a '+', '_', an exponent, hex, nan, inf, a
   longer mantissa) gives [nan], which no plain span reaches, and is left
   to [float_of_string_opt]. *)
let[@inline] plain_float line start stop =
  let neg = start < stop && Char.equal line.[start] '-' in
  let first = if neg then start + 1 else start in
  let m = ref 0 and i = ref first in
  while !i < stop && !m <= max_mantissa && line.[!i] >= '0' && line.[!i] <= '9' do
    m := (10 * !m) + (Char.code line.[!i] - Char.code '0');
    incr i
  done;
  let digits = !i - first and frac = ref 0 in
  if !i < stop && Char.equal line.[!i] '.' then begin
    incr i;
    while !i < stop && !m <= max_mantissa && line.[!i] >= '0' && line.[!i] <= '9' do
      m := (10 * !m) + (Char.code line.[!i] - Char.code '0');
      incr i;
      incr frac
    done
  end;
  if digits = 0 || !i < stop || !m > max_mantissa || !frac > 22 then Float.nan
  else begin
    let v = float_of_int !m /. pow10.(!frac) in
    if neg then -.v else v
  end

let read_channel ?(name = "from-file") ic =
  let chip = ref None in
  let row_height = ref 1.0 in
  let density = ref 1.0 in
  let n_cells = ref 0 and n_nets = ref None and n_blockages = ref None in
  (* One column per cell, net and pin attribute, filled in file order:
     each grows by doubling and is cut to its length once, at the end.  A
     line is split into token spans in place (no token list), and a
     record's fields are read right to left, so a line with several bad
     fields reports its last one. *)
  let names = ref [||] and widths = ref [||] and heights = ref [||] in
  let xs = ref [||] and ys = ref [||] and fixed = ref [||] in
  let movebound = ref [||] and cells_read = ref 0 in
  let net_start = ref [||] and net_weight = ref [||] and nets_read = ref 0 in
  let pin_cell = ref [||] and pin_dx = ref [||] and pin_dy = ref [||] in
  let pins_read = ref 0 in
  let blockages = ref [] in
  let pending_pins = ref 0 in
  (* Pin indices can only be checked once the cell count is known.  The
     first pin out of range names a cell past those read so far, and a
     larger one than any earlier pin that did (those are in range), so
     [candidates] keeps (index, line) of each pin that does both, newest
     first. *)
  let candidates = ref [] and max_candidate = ref (-1) in
  let lineno = ref 0 in
  let float_of s ln =
    match float_of_string_opt s with
    | Some f when Float.is_nan f -> parse_failure ln (Printf.sprintf "NaN value %S" s)
    | Some f when not (Float.is_finite f) ->
      parse_failure ln (Printf.sprintf "non-finite value %S" s)
    | Some f -> f
    | None -> parse_failure ln (Printf.sprintf "bad number %S" s)
  in
  let int_of s ln =
    match int_of_string_opt s with
    | Some i -> i
    | None -> parse_failure ln (Printf.sprintf "bad integer %S" s)
  in
  let count_of s ln =
    let i = int_of s ln in
    if i < 0 then parse_failure ln (Printf.sprintf "negative count %S" s);
    i
  in
  let starts = Array.make max_tokens 0 and stops = Array.make max_tokens 0 in
  (* token [i] of the line [split] last cut *)
  let tok line i = String.sub line starts.(i) (stops.(i) - starts.(i)) in
  (* [int_of]/[count_of] of token [i], read in place when it is plain
     decimal *)
  let int_at line i ln =
    let v = plain_decimal line starts.(i) stops.(i) in
    if v = min_int then int_of (tok line i) ln else v
  in
  let count_at line i ln =
    let v = int_at line i ln in
    if v < 0 then parse_failure ln (Printf.sprintf "negative count %S" (tok line i));
    v
  in
  (* [float_of] of token [i], read in place when it is a plain decimal
     fraction *)
  let float_at line i ln =
    let v = plain_float line starts.(i) stops.(i) in
    if Float.is_nan v then float_of (tok line i) ln else v
  in
  (* cell dimensions must be usable by the density and flow models *)
  let dim_at line i ln =
    let f = float_at line i ln in
    if f < 0.0 then
      parse_failure ln (Printf.sprintf "negative dimension %S" (tok line i));
    f
  in
  (* the callers check the corners before [Rect.make], which rejects
     an inverted rectangle with an unpositioned [Invalid_argument] *)
  let corners line ln =
    let y1 = float_of (tok line 4) ln in
    let x1 = float_of (tok line 3) ln in
    let y0 = float_of (tok line 2) ln in
    let x0 = float_of (tok line 1) ln in
    (x0, y0, x1, y1)
  in
  (* the two records of nearly every line *)
  let read_net line ln =
    if !pending_pins > 0 then parse_failure ln "previous net incomplete";
    let w = float_at line 1 ln in
    if w < 0.0 then parse_failure ln "negative net weight";
    pending_pins := count_at line 2 ln;
    let i = !nets_read in
    if i = Array.length !net_weight then begin
      net_weight := ensure !net_weight (i + 1) 0.0;
      net_start := ensure !net_start (i + 1) 0
    end;
    !net_weight.(i) <- w;
    !net_start.(i) <- !pins_read;
    nets_read := i + 1
  in
  let read_pin line ln =
    if !nets_read = 0 then parse_failure ln "pin outside net";
    if !pending_pins <= 0 then parse_failure ln "too many pins for net";
    let cell = int_at line 1 ln in
    if cell < -1 then parse_failure ln "bad pin cell index";
    let dy = float_at line 3 ln in
    let dx = float_at line 2 ln in
    if cell >= !cells_read && cell > !max_candidate then begin
      max_candidate := cell;
      candidates := (cell, ln) :: !candidates
    end;
    let k = !pins_read in
    if k = Array.length !pin_cell then begin
      pin_cell := ensure !pin_cell (k + 1) 0;
      pin_dx := ensure !pin_dx (k + 1) 0.0;
      pin_dy := ensure !pin_dy (k + 1) 0.0
    end;
    !pin_cell.(k) <- cell;
    !pin_dx.(k) <- dx;
    !pin_dy.(k) <- dy;
    pins_read := k + 1;
    decr pending_pins
  in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       let ln = !lineno in
       (match Fbp_resilience.Inject.fire Fbp_resilience.Inject.Parse with
        | Some Fbp_resilience.Inject.Corrupt -> parse_failure ln "injected corruption"
        | Some (Fbp_resilience.Inject.Raise msg) ->
          (* fbp-lint: allow error-taxonomy — fires only when the fuzz harness arms the registry, which converts it; CLI runs never arm *)
          raise (Fbp_resilience.Inject.Injected msg)
        | _ -> ());
       let n_tok = split line starts stops in
       (* pins and nets are matched in place, before the keyword is cut
          out of the line; every other line, and a pin or net line with
          the wrong field count, goes through the match *)
       if n_tok = 4 && span_is line starts.(0) stops.(0) "pin" then read_pin line ln
       else if n_tok = 3 && span_is line starts.(0) stops.(0) "net" then read_net line ln
       else if n_tok > 0 then
         match (tok line 0, n_tok) with
         | "chip", 5 ->
           let x0, y0, x1, y1 = corners line ln in
           if x1 <= x0 || y1 <= y0 then
             parse_failure ln "empty or inverted chip rectangle";
           chip := Some (Rect.make ~x0 ~y0 ~x1 ~y1)
         | "rowheight", 2 ->
           let h = float_of (tok line 1) ln in
           if h <= 0.0 then parse_failure ln "rowheight must be positive";
           row_height := h
         | "density", 2 ->
           let d = float_of (tok line 1) ln in
           if d <= 0.0 then parse_failure ln "density must be positive";
           density := d
         | "cells", 2 -> n_cells := count_of (tok line 1) ln
         | "cell", 8 ->
           let mb = tok line 7 in
           let mb = if String.equal mb "-" then -1 else int_of mb ln in
           if mb < -1 then parse_failure ln "negative movebound id";
           let mv = tok line 6 in
           if not (String.equal mv "fixed" || String.equal mv "movable") then
             parse_failure ln (Printf.sprintf "bad mobility %S (fixed|movable)" mv);
           let y = float_at line 5 ln in
           let x = float_at line 4 ln in
           let h = dim_at line 3 ln in
           let w = dim_at line 2 ln in
           let c = !cells_read in
           if c = Array.length !widths then begin
             names := ensure !names (c + 1) "";
             widths := ensure !widths (c + 1) 0.0;
             heights := ensure !heights (c + 1) 0.0;
             xs := ensure !xs (c + 1) 0.0;
             ys := ensure !ys (c + 1) 0.0;
             fixed := ensure !fixed (c + 1) false;
             movebound := ensure !movebound (c + 1) 0
           end;
           !names.(c) <- tok line 1;
           !widths.(c) <- w;
           !heights.(c) <- h;
           !xs.(c) <- x;
           !ys.(c) <- y;
           !fixed.(c) <- String.equal mv "fixed";
           !movebound.(c) <- mb;
           cells_read := c + 1
         | "nets", 2 -> n_nets := Some (count_of (tok line 1) ln)
         | "blockages", 2 -> n_blockages := Some (count_of (tok line 1) ln)
         | "blockage", 5 ->
           let x0, y0, x1, y1 = corners line ln in
           if x1 < x0 || y1 < y0 then
             parse_failure ln "inverted blockage rectangle";
           blockages := Rect.make ~x0 ~y0 ~x1 ~y1 :: !blockages
         | ( ( "chip" | "rowheight" | "density" | "cells" | "cell" | "nets"
             | "net" | "pin" | "blockages" | "blockage" ) as kw ),
           _ ->
           parse_failure ln
             (Printf.sprintf "malformed %S record (wrong field count)" kw)
         | kw, _ -> parse_failure ln (Printf.sprintf "unknown record %S" kw)
     done
   with End_of_file -> ());
  if !pending_pins > 0 then
    parse_failure !lineno "truncated file: last net incomplete";
  let n = !cells_read in
  if n <> !n_cells then
    parse_failure !lineno
      (Printf.sprintf "truncated file: expected %d cells, got %d" !n_cells n);
  (match !n_nets with
   | Some m when m <> !nets_read ->
     parse_failure !lineno
       (Printf.sprintf "truncated file: expected %d nets, got %d" m !nets_read)
   | _ -> ());
  (match !n_blockages with
   | Some m when m <> List.length !blockages ->
     parse_failure !lineno
       (Printf.sprintf "expected %d blockages, got %d" m (List.length !blockages))
   | _ -> ());
  let chip =
    match !chip with Some c -> c | None -> parse_failure !lineno "missing chip record"
  in
  (* the oldest candidate past the cell count is the first pin out of range *)
  (match List.find_opt (fun (cell, _) -> cell >= n) (List.rev !candidates) with
   | Some (cell, ln) ->
     parse_failure ln (Printf.sprintf "pin references cell %d of %d" cell n)
   | None -> ());
  let m = !nets_read and p = !pins_read in
  let netlist =
    Netlist.make ~names:(trim !names n) ~widths:(trim !widths n)
      ~heights:(trim !heights n) ~fixed:(trim !fixed n)
      ~movebound:(trim !movebound n)
      ~net_start:(Array.init (m + 1) (fun i -> if i = m then p else !net_start.(i)))
      ~net_weight:(trim !net_weight m) ~pin_cell:(trim !pin_cell p)
      ~pin_dx:(trim !pin_dx p) ~pin_dy:(trim !pin_dy p)
  in
  {
    Design.name;
    chip;
    row_height = !row_height;
    netlist;
    blockages = List.rev !blockages;
    initial = { Placement.x = trim !xs n; y = trim !ys n };
    target_density = !density;
  }

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> read_channel ~name:(Filename.remove_extension (Filename.basename path)) ic)

let read_file_result path =
  match read_file path with
  | d -> Ok d
  | exception Parse_error (line, msg) ->
    Error (Fbp_resilience.Fbp_error.Parse_error { file = path; line; msg })
  | exception Sys_error msg -> Error (Fbp_resilience.Fbp_error.Invalid_input msg)
