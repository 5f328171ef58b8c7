(* Plain-text table rendering for the benchmark harness: every reproduced
   paper table is printed as an aligned ASCII grid with a title line. *)

type align = Left | Right

type t = {
  title : string;
  header : string list;
  aligns : align list;
  mutable rows : string list list;  (* reverse order *)
}

let create ~title ~header ?aligns () =
  let aligns =
    match aligns with
    | Some a ->
      if List.length a <> List.length header then
        invalid_arg "Table.create: aligns/header length mismatch";
      a
    | None -> List.map (fun _ -> Right) header
  in
  { title; header; aligns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg "Table.add_row: wrong number of columns";
  t.rows <- row :: t.rows

(* Separator row rendered as a dashed line. *)
let add_sep t = t.rows <- [] :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row ->
            match List.nth_opt row i with
            | Some cell -> max acc (String.length cell)
            | None -> acc)
          (String.length h) rows)
      t.header
  in
  let buf = Buffer.create 1024 in
  let line cells =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        let a = List.nth t.aligns i in
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad a w cell))
      cells;
    Buffer.add_string buf " |\n"
  in
  let dash () =
    Buffer.add_char buf '+';
    List.iter
      (fun w -> Buffer.add_string buf (String.make (w + 2) '-'); Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  dash ();
  line t.header;
  dash ();
  List.iter (function [] -> dash () | row -> line row) rows;
  dash ();
  Buffer.contents buf

(* Common cell formatters. *)
let fmt_pct v = Printf.sprintf "%.1f%%" (100.0 *. v)
let fmt_k v =
  if v >= 1_000_000 then Printf.sprintf "%.1fM" (float_of_int v /. 1e6)
  else if v >= 1000 then Printf.sprintf "%dk" (v / 1000)
  else string_of_int v
