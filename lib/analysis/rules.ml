(* The fbp-lint rules, implemented as passes over the ppxlib parsetree.

   Everything here is *syntactic*: we lint the untyped AST, so the rules
   favour precision on the idioms this codebase actually uses (see the
   interface for the catalogue).  False negatives are acceptable; false
   positives are not — anything legitimately flagged but intended gets an
   inline suppression with a reason. *)

open Ppxlib

let catalogue =
  [
    ( "domain-safety",
      "mutable state captured by closures passed to Fbp_util.Pool; use \
       Atomic/Mutex or pass immutable snapshots" );
    ( "float-discipline",
      "polymorphic compare/equality on float-bearing values; use monomorphic \
       Float.compare / Int.compare / keyed helpers" );
    ( "determinism",
      "wall-clock or stdlib randomness outside lib/util/{rng,timer}.ml; runs \
       must be bit-reproducible" );
    ( "error-taxonomy",
      "bare failwith/exit/anonymous invalid_arg in lib/; failures go through \
       Fbp_resilience.Fbp_error" );
    ( "io-discipline",
      "stdout printing in lib/; output belongs to the CLI, bench, or Fbp_obs" );
    ("lint-directive", "malformed or unused suppression comment");
  ]

(* ------------------------------------------------------------ path scope *)

type scope = { file : string; in_lib : bool }

let scope_of_file file =
  let parts = String.split_on_char '/' file in
  let has name = List.exists (String.equal name) parts in
  { file; in_lib = has "lib" }

let path_has_dir sc dir =
  List.exists (String.equal dir) (String.split_on_char '/' sc.file)

(* ---------------------------------------------------------------- helpers *)

let rec lid_parts (l : Longident.t) =
  match l with
  | Lident s -> [ s ]
  | Ldot (l, s) -> lid_parts l @ [ s ]
  | Lapply (a, _) -> lid_parts a

let path_is parts spec = List.equal String.equal parts spec

(* Qualified name modulo an optional [Stdlib.] prefix. *)
let stdlib_path parts spec =
  path_is parts spec || path_is parts ("Stdlib" :: spec)

let one_of members s = List.exists (String.equal s) members

(* Collect every string constant in an expression subtree (used to decide
   whether an [invalid_arg] message names its function). *)
let string_literals e =
  let acc = ref [] in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_constant (Pconst_string (s, _, _)) -> acc := s :: !acc
        | _ -> ());
        super#expression e
    end
  in
  it#expression e;
  !acc

(* "Module.fn: ..." — a precondition message that names its site. *)
let names_a_function s =
  match String.index_opt s '.' with
  | None | Some 0 -> false
  | Some i ->
    let ok = ref (s.[0] >= 'A' && s.[0] <= 'Z') in
    for j = 1 to i - 1 do
      match s.[j] with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> ()
      | _ -> ok := false
    done;
    !ok

(* Is [e] syntactically float-valued?  Conservative: float constants, the
   float special values, float arithmetic and conversions. *)
let floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> (
    match lid_parts txt with
    | [ ( "nan" | "infinity" | "neg_infinity" | "epsilon_float" | "max_float"
        | "min_float" ) ] ->
      true
    | [ "Float";
        ( "nan" | "infinity" | "neg_infinity" | "epsilon" | "pi" | "max_float"
        | "min_float" ) ] ->
      true
    | _ -> false)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match lid_parts txt with
    | [ ( "+." | "-." | "*." | "/." | "**" | "~-." | "float_of_int"
        | "float_of_string" | "sqrt" | "abs_float" ) ] ->
      true
    | "Float" :: _ -> true
    | _ -> false)
  | _ -> false

let is_nan_ident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match lid_parts txt with
    | [ "nan" ] | [ "Float"; "nan" ] -> true
    | _ -> false)
  | _ -> false

(* Diagnostic sink threaded through every rule. *)
type adder =
  rule:string -> loc:Location.t -> ?hint:string -> string -> unit

(* ------------------------------------------------- per-expression rules *)

let assoc_family =
  [ "assoc"; "assoc_opt"; "mem_assoc"; "remove_assoc"; "mem"; "memq" ]

let stdout_printers =
  [ "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float" ]

(* Rules that look at a single identifier occurrence. *)
let check_ident ~sc ~(add : adder) ~loc parts =
  (* float-discipline: bare polymorphic structural comparison *)
  if stdlib_path parts [ "compare" ] then
    add ~rule:"float-discipline" ~loc
      ~hint:
        "use Int.compare / Float.compare / String.compare or a keyed \
         comparator; polymorphic compare orders nan inconsistently and \
         traverses whole structures"
      "bare polymorphic 'compare'"
  else begin
    (match parts with
    | [ "List"; fn ] when one_of assoc_family fn ->
      add ~rule:"float-discipline" ~loc
        ~hint:
          "use a monomorphic helper (List.exists with an explicit equal, or \
           an int-keyed array/Hashtbl); these use polymorphic equality"
        (Printf.sprintf "polymorphic List.%s" fn)
    | [ "Array"; ("mem" | "memq") ] ->
      add ~rule:"float-discipline" ~loc
        ~hint:"use Array.exists with an explicit equality"
        "polymorphic Array.mem"
    | _ -> ());
    (* determinism *)
    let det_allowed =
      String.ends_with ~suffix:"lib/util/rng.ml" sc.file
      || String.equal sc.file "lib/util/rng.ml"
      || String.ends_with ~suffix:"lib/util/timer.ml" sc.file
      || String.equal sc.file "lib/util/timer.ml"
    in
    if not det_allowed then begin
      match parts with
      | "Random" :: _ :: _ | "Stdlib" :: "Random" :: _ ->
        add ~rule:"determinism" ~loc
          ~hint:"thread a seeded Fbp_util.Rng.t instead"
          "stdlib Random: global, unseeded state breaks run reproducibility"
      | [ "Sys"; "time" ] | [ "Stdlib"; "Sys"; "time" ] ->
        add ~rule:"determinism" ~loc ~hint:"use Fbp_util.Timer.now"
          "Sys.time outside lib/util/timer.ml"
      | [ "Unix"; ("gettimeofday" | "time") ]
      | [ "Stdlib"; "Unix"; ("gettimeofday" | "time") ] ->
        add ~rule:"determinism" ~loc ~hint:"use Fbp_util.Timer.now"
          "Unix wall clock outside lib/util/timer.ml"
      | _ -> ()
    end;
    (* io-discipline: stdout printing from library code *)
    if sc.in_lib then begin
      match parts with
      | [ p ] when one_of stdout_printers p ->
        add ~rule:"io-discipline" ~loc
          ~hint:"return a string (render) and let the CLI/bench print it"
          (Printf.sprintf "'%s' writes to stdout from lib/" p)
      | [ ("Printf" | "Format"); "printf" ] ->
        add ~rule:"io-discipline" ~loc
          ~hint:"use sprintf/eprintf, or route through Fbp_obs"
          "printf writes to stdout from lib/"
      | _ -> ()
    end;
    (* error-taxonomy: bare failwith in lib/ outside the taxonomy itself *)
    if sc.in_lib && not (path_has_dir sc "resilience") then
      if stdlib_path parts [ "failwith" ] then
        add ~rule:"error-taxonomy" ~loc
          ~hint:
            "raise a typed error: Fbp_resilience.Fbp_error.raise_error \
             (Invalid_input ...) / (Internal ...)"
          "bare failwith in lib/"
  end

(* Rules that need the application's arguments. *)
let check_apply ~sc ~(add : adder) ~loc parts args =
  let nolabel =
    List.filter_map
      (fun (l, a) -> match l with Nolabel -> Some a | _ -> None)
      args
  in
  (match parts with
  | [ ("=" | "<>" | "==" | "!=") ] -> (
    match nolabel with
    | [ a; b ] ->
      if is_nan_ident a || is_nan_ident b then
        add ~rule:"float-discipline" ~loc ~hint:"use Float.is_nan"
          "comparison against nan is always false"
      else if floatish a || floatish b then
        add ~rule:"float-discipline" ~loc
          ~hint:"use Float.equal / Float.compare (nan-aware, monomorphic)"
          "polymorphic equality on float operands"
    | _ -> ())
  | _ -> ());
  if sc.in_lib && not (path_has_dir sc "resilience") then begin
    match parts with
    | [ "exit" ] | [ "Stdlib"; "exit" ] ->
      add ~rule:"error-taxonomy" ~loc
        ~hint:
          "return a typed Fbp_error and let bin/fbp_place map it to an exit \
           code"
        "calling exit from lib/"
    | [ "invalid_arg" ] | [ "Stdlib"; "invalid_arg" ] ->
      let named =
        List.exists
          (fun a -> List.exists names_a_function (string_literals a))
          nolabel
      in
      if not named then
        add ~rule:"error-taxonomy" ~loc
          ~hint:"name the precondition site: invalid_arg \"Module.fn: ...\""
          "invalid_arg without a \"Module.fn: ...\" message"
    | _ -> ()
  end

let expression_rules ~sc ~(add : adder) st =
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; loc } -> check_ident ~sc ~add ~loc (lid_parts txt)
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
          check_apply ~sc ~add ~loc:e.pexp_loc (lid_parts txt) args
        | _ -> ());
        super#expression e
    end
  in
  it#structure st

(* --------------------------------------------------- domain-safety rule *)

(* What a closure handed to these Fbp_util.Pool entry points captures is
   checked by the typed pass (Interproc); here they only mark a module as
   domain-parallel. *)
let pool_entries = [ "run_chunks"; "fork2"; "set_profile_hook" ]

let is_parallel_entry parts =
  match List.rev parts with
  | fn :: "Pool" :: _ -> one_of pool_entries fn
  | _ -> false

(* Does the module touch domain-parallel machinery at all?  Scopes the
   module-level mutable-state check. *)
let uses_parallelism st =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } ->
          let parts = lid_parts txt in
          if is_parallel_entry parts then found := true;
          (match parts with
          | [ "Domain"; ("spawn" | "join") ] -> found := true
          | _ -> ())
        | _ -> ());
        super#expression e
    end
  in
  it#structure st;
  !found

(* Module-level mutable bindings (ref cells, Hashtbls) in a module that
   spawns domains: racy by construction. *)
let module_level_mutables ~(add : adder) st =
  let check_binding vb =
    match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
    | ( Ppat_var { txt = name; _ },
        Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ) ->
      let parts = lid_parts txt in
      if stdlib_path parts [ "ref" ] then
        add ~rule:"domain-safety" ~loc:vb.pvb_loc
          ~hint:"use Atomic.t (Atomic.make/get/set) or guard with a Mutex"
          (Printf.sprintf
             "module-level ref '%s' in a module using domain parallelism" name)
      else if stdlib_path parts [ "Hashtbl"; "create" ] then
        add ~rule:"domain-safety" ~loc:vb.pvb_loc
          ~hint:"use a Mutex-guarded table or per-domain tables"
          (Printf.sprintf
             "module-level Hashtbl '%s' in a module using domain parallelism"
             name)
    | _ -> ()
  in
  let rec items its = List.iter item its
  and item si =
    match si.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter check_binding vbs
    | Pstr_module mb -> module_expr mb.pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> module_expr mb.pmb_expr) mbs
    | _ -> ()
  and module_expr me =
    match me.pmod_desc with
    | Pmod_structure st -> items st
    | Pmod_functor (_, me) -> module_expr me
    | Pmod_constraint (me, _) -> module_expr me
    | _ -> ()
  in
  items st

(* ------------------------------------------------------------------ run *)

let run ~file st =
  let sc = scope_of_file file in
  let diags = ref [] in
  let add ~rule ~loc ?hint msg =
    diags := Diagnostic.make ~rule ~file ~loc ?hint msg :: !diags
  in
  expression_rules ~sc ~add st;
  if uses_parallelism st then module_level_mutables ~add st;
  List.sort_uniq Diagnostic.compare !diags
