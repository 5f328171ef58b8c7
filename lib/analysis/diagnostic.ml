(* Lint diagnostics.  Kept deliberately flat (no Location.t in the record)
   so rendering, baselining and tests never depend on compiler-libs
   internals beyond the construction site. *)

type t = {
  rule : string;
  file : string;
  line : int;
  col : int;
  end_line : int;
  end_col : int;
  msg : string;
  hint : string option;
}

let make ~rule ~file ~(loc : Ppxlib.Location.t) ?hint msg =
  let start = loc.loc_start and stop = loc.loc_end in
  {
    rule;
    file;
    line = start.pos_lnum;
    col = start.pos_cnum - start.pos_bol;
    end_line = stop.pos_lnum;
    end_col = stop.pos_cnum - stop.pos_bol;
    msg;
    hint;
  }

(* Construction from raw positions, for passes (the interprocedural one)
   that carry compiler-libs locations rather than ppxlib ones. *)
let make_pos ~rule ~file ~line ~col ?hint msg =
  { rule; file; line; col; end_line = line; end_col = col; msg; hint }

let to_text d =
  let span =
    if d.end_line = d.line then Printf.sprintf "%d:%d-%d" d.line d.col d.end_col
    else Printf.sprintf "%d:%d-%d:%d" d.line d.col d.end_line d.end_col
  in
  Printf.sprintf "%s:%s: [%s] %s%s" d.file span d.rule d.msg
    (match d.hint with None -> "" | Some h -> " (hint: " ^ h ^ ")")

let to_json d =
  let module J = Fbp_util.Json in
  J.Obj
    [
      ("rule", J.Str d.rule);
      ("file", J.Str d.file);
      ("line", J.int d.line);
      ("col", J.int d.col);
      ("end_line", J.int d.end_line);
      ("end_col", J.int d.end_col);
      ("msg", J.Str d.msg);
      ("hint", match d.hint with None -> J.Null | Some h -> J.Str h);
    ]

let key d = Printf.sprintf "%s:%d:%s" d.file d.line d.rule

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule
