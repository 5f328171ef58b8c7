(* Per-function effect summaries extracted from typed ASTs.

   For every toplevel binding of every loaded unit we compute a *local*
   summary: which module-level mutable state it writes or reads (ref-class
   only — chunk-disjoint array/bytes/bigarray stores are the sanctioned
   parallel-write pattern and are deliberately out of scope), whether it
   performs io or consults a nondeterminism source, which exceptions
   escape it lexically (try/match-with-exception handlers are applied at
   record time), which functions it references (the may-call edge set used
   by the fixpoint), and which parallel regions it opens (closures handed
   to the Pool entry points, with their captured-state profile).

   Interproc combines these local summaries into whole-program signatures;
   this module never looks across function boundaries. *)

open Typedtree

type site = { sfile : string; sline : int; scol : int; swhat : string }

let compare_site a b =
  let c = String.compare a.sfile b.sfile in
  if c <> 0 then c
  else
    let c = Int.compare a.sline b.sline in
    if c <> 0 then c
    else
      let c = Int.compare a.scol b.scol in
      if c <> 0 then c else String.compare a.swhat b.swhat

(* Exception filter contributed by one enclosing try/match-with-exception. *)
type filter = Catch_all | Catch of string list

let compare_filter a b =
  match (a, b) with
  | Catch_all, Catch_all -> 0
  | Catch_all, Catch _ -> -1
  | Catch _, Catch_all -> 1
  | Catch xs, Catch ys -> List.compare String.compare xs ys

type call = {
  callee : string;  (* canonical dotted path *)
  csite : site;
  catches : filter list;  (* handlers active around the call site, innermost first *)
}

type closure_info = {
  k_site : site;
  k_refs : call list;  (* functions referenced inside the parallel closure *)
  k_captured : site list;  (* direct mutation/read of state captured from the enclosing fn *)
  k_global : site list;  (* direct mutation/read of module-level state *)
  k_mut_args : (string * string * site) list;  (* callee, captured var, site *)
}

type region = { r_entry : string; r_site : site; r_closures : closure_info list }

type t = {
  fn : string;
  src : string;
  fn_line : int;
  writes_global : site list;
  reads_global : site list;
  writes_args : site list;
  io : site list;
  nondet : site list;
  raises : (string * site) list;
  handlers : filter list;
  calls : call list;
  regions : region list;
}

let compare_call (a : call) (b : call) =
  let c = String.compare a.callee b.callee in
  if c <> 0 then c
  else
    let c = compare_site a.csite b.csite in
    if c <> 0 then c else List.compare compare_filter a.catches b.catches

let compare_raise (na, sa) (nb, sb) =
  let c = String.compare na nb in
  if c <> 0 then c else compare_site sa sb

(* ------------------------------------------------------------ resolution *)

type uctx = {
  vals : (string, string list) Hashtbl.t;  (* Ident.unique_name -> canonical path *)
  mods : (string, string list) Hashtbl.t;
}

let dotted = String.concat "."

let rec resolve ctx (p : Path.t) : string list option =
  match p with
  | Path.Pident id -> (
    let key = Ident.unique_name id in
    match Hashtbl.find_opt ctx.mods key with
    | Some parts -> Some parts
    | None -> (
      match Hashtbl.find_opt ctx.vals key with
      | Some parts -> Some parts
      | None ->
        let n = Ident.name id in
        if String.length n > 0 && n.[0] >= 'A' && n.[0] <= 'Z' then
          Some (Cmt_loader.canon_component n)
        else None))
  | Path.Pdot (p', s) -> (
    match resolve ctx p' with
    | Some pre -> Some (pre @ Cmt_loader.canon_component s)
    | None -> None)
  | Path.Papply (a, _) -> resolve ctx a
  | Path.Pextra_ty (p', _) -> resolve ctx p'

let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts
let mem_s x l = List.exists (String.equal x) l

(* --------------------------------------------------- effect classification *)

let is_nondet parts =
  match strip_stdlib parts with
  | "Random" :: "State" :: rest -> rest = [ "make_self_init" ]
  | [ "Random"; _ ] -> true
  | [ "Sys"; "time" ] -> true
  | [ "Unix"; ("gettimeofday" | "time") ] -> true
  | _ -> false

let io_simple =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_float"; "print_char"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_int"; "read_line"; "read_int";
    "read_int_opt"; "read_float"; "read_float_opt"; "output_string";
    "output_bytes"; "output_char"; "output_value"; "output_binary_int";
    "open_in"; "open_in_bin"; "open_in_gen"; "open_out"; "open_out_bin";
    "open_out_gen";
  ]

let is_io parts =
  match strip_stdlib parts with
  | [ f ] -> mem_s f io_simple
  | [ "Printf"; ("printf" | "eprintf") ] -> true
  | [ "Format"; ("printf" | "eprintf") ] -> true
  | "In_channel" :: _ | "Out_channel" :: _ -> true
  | [ "Sys"; "command" ] -> true
  | [ "Unix"; ("system" | "sleep" | "sleepf") ] -> true
  | _ -> false

(* ref-class mutators/readers keyed on the stripped head. `None` in the
   write position means "not a write through argument 0". *)
let ref_write_op = function
  | [ (":=" | "incr" | "decr") ] -> true
  | "Hashtbl" :: [ op ] ->
    mem_s op
      [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]
  | "Queue" :: [ op ] ->
    mem_s op [ "push"; "add"; "pop"; "take"; "clear"; "transfer" ]
  | "Stack" :: [ op ] -> mem_s op [ "push"; "pop"; "clear" ]
  | "Buffer" :: [ op ] ->
    mem_s op
      [
        "add_string"; "add_char"; "add_bytes"; "add_substring"; "add_subbytes";
        "add_buffer"; "clear"; "reset"; "truncate";
      ]
  | _ -> false

let ref_read_op = function
  | [ "!" ] -> true
  | "Hashtbl" :: [ op ] ->
    mem_s op
      [
        "find"; "find_opt"; "find_all"; "mem"; "iter"; "fold"; "length";
        "copy"; "to_seq"; "to_seq_keys"; "to_seq_values";
      ]
  | _ -> false

let is_alloc_head parts =
  match strip_stdlib parts with
  | [ "ref" ] -> true
  | "Array" :: [ op ] ->
    mem_s op
      [
        "make"; "create_float"; "init"; "copy"; "append"; "sub"; "of_list";
        "map"; "mapi"; "make_matrix"; "concat";
      ]
  | [ "Hashtbl"; ("create" | "copy") ] -> true
  | [ "Buffer"; "create" ] -> true
  | "Bytes" :: [ op ] ->
    mem_s op [ "create"; "make"; "copy"; "of_string"; "sub" ]
  | [ "Queue"; "create" ] | [ "Stack"; "create" ] | [ "Atomic"; "make" ] ->
    true
  | [ "Float"; "Array"; ("create" | "make") ] -> true
  | _ -> false

let is_raise_head = function
  | [ ("raise" | "raise_notrace") ] | [ "Printexc"; "raise_with_backtrace" ]
    ->
    true
  | _ -> false

(* The parallel entry points: every positional argument is a closure that
   runs on helper domains. *)
let region_entries =
  [
    "Fbp_util.Pool.run_chunks"; "Fbp_util.Pool.fork2";
    "Fbp_util.Pool.set_profile_hook";
  ]

(* Stateful containers whose free-variable hand-off into a parallel
   closure is worth tracking (beyond these we cannot see mutability in
   the type without an environment lookup — documented caveat). *)
let is_mutable_tycon ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
    match Path.name p with
    | "ref" | "Stdlib.ref" -> true
    | n ->
      List.exists
        (fun s -> String.equal n s || String.ends_with ~suffix:("." ^ s) n)
        [ "Hashtbl.t"; "Queue.t"; "Stack.t"; "Buffer.t" ])
  | _ -> false

(* --------------------------------------------------------- pattern binders *)

let rec pattern_vars : type k. k general_pattern -> Ident.t list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ id ]
  | Tpat_alias (p', id, _) -> id :: pattern_vars p'
  | Tpat_tuple ps -> List.concat_map pattern_vars ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map pattern_vars ps
  | Tpat_record (fields, _) ->
    List.concat_map (fun (_, _, p') -> pattern_vars p') fields
  | Tpat_array ps -> List.concat_map pattern_vars ps
  | Tpat_or (a, b, _) -> pattern_vars a @ pattern_vars b
  | Tpat_lazy p' -> pattern_vars p'
  | Tpat_variant (_, Some p', _) -> pattern_vars p'
  | Tpat_value v -> pattern_vars (v :> value general_pattern)
  | Tpat_exception p' -> pattern_vars p'
  | _ -> []

(* Collect every ident bound anywhere inside [expr] (params, lets, for
   loops), the subset let-bound to a fresh allocation, and the subset
   let-bound to a function (with its definition).  Used both for the
   per-node scope table and for the per-closure scope table. *)
let collect_bound ctx expr =
  let bound = Hashtbl.create 32
  and allocs = Hashtbl.create 8
  and fns = Hashtbl.create 8 in
  let is_alloc e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
      match resolve ctx p with Some parts -> is_alloc_head parts | None -> false)
    | Texp_record _ | Texp_array _ -> true
    | _ -> false
  in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k) sub (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_var (id, _) -> Hashtbl.replace bound (Ident.unique_name id) ()
          | Tpat_alias (_, id, _) ->
            Hashtbl.replace bound (Ident.unique_name id) ()
          | _ -> ());
          Tast_iterator.default_iterator.pat sub p);
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_for (id, _, _, _, _, _) ->
            Hashtbl.replace bound (Ident.unique_name id) ()
          | Texp_letmodule (Some id, _, _, _, _) ->
            Hashtbl.replace bound (Ident.unique_name id) ()
          | Texp_function { param; _ } ->
            Hashtbl.replace bound (Ident.unique_name param) ()
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
      value_binding =
        (fun sub vb ->
          (match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
          | Tpat_var (id, _), Texp_function _ ->
            Hashtbl.replace fns (Ident.unique_name id) vb.vb_expr
          | Tpat_var (id, _), _ when is_alloc vb.vb_expr ->
            Hashtbl.replace allocs (Ident.unique_name id) ()
          | _ -> ());
          Tast_iterator.default_iterator.value_binding sub vb);
    }
  in
  it.expr it expr;
  (bound, allocs, fns)

(* ------------------------------------------------------------- unit pass A *)

type node = { n_id : string; n_line : int; n_expr : expression }

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let collect_nodes (u : Cmt_loader.unit_info) ctx =
  let nodes = ref [] and anon = ref 0 in
  let rec do_structure prefix str = List.iter (do_item prefix) str.str_items
  and do_item prefix item =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          match pattern_vars vb.vb_pat with
          | [] ->
            incr anon;
            nodes :=
              {
                n_id = dotted prefix ^ Printf.sprintf ".<top:%d>" !anon;
                n_line = line_of vb.vb_loc;
                n_expr = vb.vb_expr;
              }
              :: !nodes
          | first :: _ as ids ->
            let nid = prefix @ [ Ident.name first ] in
            List.iter
              (fun id -> Hashtbl.replace ctx.vals (Ident.unique_name id) nid)
              ids;
            nodes :=
              {
                n_id = dotted nid;
                n_line = line_of vb.vb_loc;
                n_expr = vb.vb_expr;
              }
              :: !nodes)
        vbs
    | Tstr_eval (e, _) ->
      incr anon;
      nodes :=
        {
          n_id = dotted prefix ^ Printf.sprintf ".<top:%d>" !anon;
          n_line = line_of item.str_loc;
          n_expr = e;
        }
        :: !nodes
    | Tstr_module mb -> do_module prefix mb
    | Tstr_recmodule mbs -> List.iter (do_module prefix) mbs
    | Tstr_exception te -> (
      let ec = te.tyexn_constructor in
      match ec.ext_kind with
      | Text_rebind (p, _) -> (
        match resolve ctx p with
        | Some parts ->
          Hashtbl.replace ctx.vals (Ident.unique_name ec.ext_id) parts
        | None -> ())
      | _ ->
        Hashtbl.replace ctx.vals
          (Ident.unique_name ec.ext_id)
          (prefix @ [ Ident.name ec.ext_id ]))
    | _ -> ()
  and do_module prefix mb =
    match mb.mb_id with
    | None -> ()
    | Some id -> (
      let name = Ident.name id in
      let rec peel me =
        match me.mod_desc with
        | Tmod_constraint (me', _, _, _) -> peel me'
        | d -> d
      in
      match peel mb.mb_expr with
      | Tmod_structure str ->
        Hashtbl.replace ctx.mods (Ident.unique_name id) (prefix @ [ name ]);
        do_structure (prefix @ [ name ]) str
      | Tmod_ident (p, _) ->
        let target =
          match resolve ctx p with
          | Some parts -> parts
          | None -> prefix @ [ name ]
        in
        Hashtbl.replace ctx.mods (Ident.unique_name id) target
      | _ ->
        (* functors / applications / unpacks: opaque prefix (caveat) *)
        Hashtbl.replace ctx.mods (Ident.unique_name id) (prefix @ [ name ]))
  in
  do_structure u.name u.structure;
  List.rev !nodes

(* ------------------------------------------------------------- unit pass C *)

type env = {
  ctx : uctx;
  src : string;
  sanctioned : bool;  (* nondet sources allowed in this unit (rng/timer) *)
  bound : (string, unit) Hashtbl.t;
  allocs : (string, unit) Hashtbl.t;
  fns : (string, expression) Hashtbl.t;  (* let-bound local functions *)
  mutable filters : filter list;
  mutable hs : filter list;  (* every handler seen anywhere in the node *)
  mutable wg : site list;
  mutable rg : site list;
  mutable wa : site list;
  mutable io_sites : site list;
  mutable nd : site list;
  mutable rs : (string * site) list;
  mutable cs : call list;
  mutable regions : region list;
}

let site_of env (loc : Location.t) what =
  let p = loc.Location.loc_start in
  {
    sfile = env.src;
    sline = p.Lexing.pos_lnum;
    scol = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    swhat = what;
  }

let exn_of_construct ctx (cd : Types.constructor_description) =
  match cd.Types.cstr_tag with
  | Types.Cstr_extension (path, _) -> Option.map dotted (resolve ctx path)
  | _ -> None

let caught_by filters name =
  List.exists
    (function Catch_all -> true | Catch l -> mem_s name l)
    filters

(* Does the handler body re-raise the exception bound as [id]?  Used to
   keep `| e -> raise e` (and backtrace-preserving variants) from being
   treated as a swallowing catch-all. *)
let reraises_ident ctx id rhs =
  let hit = ref false in
  let key = Ident.unique_name id in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
            match resolve ctx p with
            | Some parts when is_raise_head (strip_stdlib parts) -> (
              let first_pos =
                List.find_map
                  (function
                    | Asttypes.Nolabel, Some a -> Some a | _ -> None)
                  args
              in
              match first_pos with
              | Some { exp_desc = Texp_ident (Path.Pident id', _, _); _ }
                when String.equal (Ident.unique_name id') key ->
                hit := true
              | _ -> ())
            | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it rhs;
  !hit

(* Exception filter contributed by the handlers of a try (value cases). *)
let filter_of_handlers ctx cases =
  let names = ref [] and all = ref false in
  List.iter
    (fun c ->
      if c.c_guard <> None then () (* guarded: may decline — assume no catch *)
      else
        let rec go : type k. k general_pattern -> unit =
         fun p ->
          match p.pat_desc with
          | Tpat_or (a, b, _) ->
            go a;
            go b
          | Tpat_alias (p', id, _) ->
            if reraises_ident ctx id c.c_rhs then () else go p'
          | Tpat_construct (_, cd, _, _) -> (
            match exn_of_construct ctx cd with
            | Some n -> names := n :: !names
            | None -> ())
          | Tpat_var (id, _) ->
            if not (reraises_ident ctx id c.c_rhs) then all := true
          | Tpat_any -> all := true
          | Tpat_value v -> go (v :> value general_pattern)
          | Tpat_exception p' -> go p'
          | _ -> ()
        in
        go c.c_lhs)
    cases;
  if !all then Catch_all else Catch (List.sort_uniq String.compare !names)

(* Filter from a match whose cases include `exception ...` patterns, or
   None when the match handles no exceptions at all. *)
let filter_of_match ctx cases =
  let names = ref [] and all = ref false and any = ref false in
  List.iter
    (fun c ->
      let rec go : type k. k general_pattern -> unit =
       fun p ->
        match p.pat_desc with
        | Tpat_exception p' ->
          any := true;
          if c.c_guard <> None then ()
          else
            let rec inner : type j. j general_pattern -> unit =
             fun q ->
              match q.pat_desc with
              | Tpat_or (a, b, _) ->
                inner a;
                inner b
              | Tpat_alias (q', _, _) -> inner q'
              | Tpat_construct (_, cd, _, _) -> (
                match exn_of_construct ctx cd with
                | Some n -> names := n :: !names
                | None -> ())
              | Tpat_var _ | Tpat_any -> all := true
              | _ -> ()
            in
            inner p'
        | Tpat_or (a, b, _) ->
          go a;
          go b
        | Tpat_value v -> go (v :> value general_pattern)
        | _ -> ()
      in
      go c.c_lhs)
    cases;
  if not !any then None
  else if !all then Some Catch_all
  else Some (Catch (List.sort_uniq String.compare !names))

(* Root of an lvalue: what object does this read/write ultimately touch? *)
type root =
  | Rlocal  (* let-bound fresh allocation: chunk-private, fine *)
  | Rbound of string  (* some binder in this function (param or let) *)
  | Rglobal of string  (* module-level state, ours or another unit's *)
  | Rarr  (* derived from an array element: sanctioned chunk-disjoint *)
  | Runknown

let rec root_of ~bound ~allocs ctx e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
    match p with
    | Path.Pident id ->
      let key = Ident.unique_name id in
      if Hashtbl.mem allocs key then Rlocal
      else if Hashtbl.mem bound key then Rbound (Ident.name id)
      else (
        match resolve ctx p with
        | Some parts -> Rglobal (dotted parts)
        | None -> Runknown)
    | _ -> (
      match resolve ctx p with
      | Some parts -> Rglobal (dotted parts)
      | None -> Runknown))
  | Texp_field (e', _, _) -> root_of ~bound ~allocs ctx e'
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
    match Option.map strip_stdlib (resolve ctx p) with
    | Some [ "Array"; ("get" | "unsafe_get") ]
    | Some [ "Bytes"; ("get" | "unsafe_get") ]
    | Some ("Bigarray" :: _) ->
      Rarr
    | _ -> Runknown)
  | _ -> Runknown

let first_nolabel args =
  List.find_map
    (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
    args

let nolabel_args args =
  List.filter_map
    (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
    args

(* ------------------------------------------------------- closure analysis *)

(* A work argument that names a function let-bound in the enclosing one,
   or partially applies it, runs that function's body on the workers, and
   so does every local function that the closure, or such a body, calls:
   both shapes reach their callees from a worker.  Each body is walked as
   the closure is: its parameters and locals count as bound (a partial
   application's prefix is evaluated by the caller), what it captures
   from the enclosing function does not, and the module-level functions
   it references are the callees the fixpoint follows. *)
(* The bodies of the local functions that [warg] runs: each local
   function referenced from the closure (the work function it names
   included) or from a body already found, once each. *)
let local_bodies env warg =
  let seen = Hashtbl.create 8 and bodies = ref [] in
  let rec add key body =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      bodies := body :: !bodies;
      scan body
    end
  and scan e =
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun sub e ->
            (match e.exp_desc with
            | Texp_ident (Path.Pident id, _, _) -> (
              let key = Ident.unique_name id in
              match Hashtbl.find_opt env.fns key with
              | Some body -> add key body
              | None -> ())
            | _ -> ());
            Tast_iterator.default_iterator.expr sub e);
      }
    in
    it.expr it e
  in
  scan warg;
  List.rev !bodies

let analyze_work_arg env warg =
  let bodies = local_bodies env warg in
  let bc = Hashtbl.create 32 and bc_allocs = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let b, a, _ = collect_bound env.ctx e in
      Hashtbl.iter (Hashtbl.replace bc) b;
      Hashtbl.iter (Hashtbl.replace bc_allocs) a)
    (warg :: bodies);
  let refs = ref []
  and captured = ref []
  and global = ref []
  and mut_args = ref [] in
  let classify e =
    (* scope decision order: closure-local first, then enclosing fn, then
       module level *)
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
      let key = Ident.unique_name id in
      if Hashtbl.mem bc_allocs key then Rlocal
      else if Hashtbl.mem bc key then Rbound (Ident.name id)
      else if Hashtbl.mem env.bound key then Rbound (Ident.name id)
      else root_of ~bound:bc ~allocs:bc_allocs env.ctx e
    | _ -> root_of ~bound:bc ~allocs:bc_allocs env.ctx e
  in
  (* is this ident free in the closure but bound in the enclosing fn? *)
  let enclosing_free id =
    let key = Ident.unique_name id in
    (not (Hashtbl.mem bc key)) && Hashtbl.mem env.bound key
  in
  let record_touch e loc what =
    match classify e with
    | Rlocal | Rarr | Runknown -> ()
    | Rbound name -> (
      match e.exp_desc with
      | Texp_ident (Path.Pident id, _, _) when enclosing_free id ->
        captured :=
          site_of env loc (Printf.sprintf "%s '%s'" what name) :: !captured
      | _ -> () (* bound inside the closure itself: chunk-private *))
    | Rglobal g ->
      global := site_of env loc (Printf.sprintf "%s '%s'" what g) :: !global
  in
  (* records the callees and container hand-offs that the fixpoint
     follows *)
  let iterator =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> (
            match resolve env.ctx p with
            | Some parts when not (is_raise_head (strip_stdlib parts)) ->
              refs :=
                {
                  callee = dotted parts;
                  csite = site_of env e.exp_loc "reference";
                  catches = [];
                }
                :: !refs
            | _ -> ())
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
            match resolve env.ctx p with
            | Some parts ->
              let stripped = strip_stdlib parts in
              if ref_write_op stripped then
                Option.iter
                  (fun a -> record_touch a e.exp_loc "writes")
                  (first_nolabel args)
              else if ref_read_op stripped then
                Option.iter
                  (fun a -> record_touch a e.exp_loc "reads")
                  (first_nolabel args)
              else
                (* hand-off of a captured mutable container to a callee *)
                List.iter
                  (fun a ->
                    match a.exp_desc with
                    | Texp_ident (Path.Pident id, _, _)
                      when enclosing_free id && is_mutable_tycon a.exp_type ->
                      mut_args :=
                        ( dotted parts,
                          Ident.name id,
                          site_of env a.exp_loc
                            (Printf.sprintf "passes captured '%s'"
                               (Ident.name id)) )
                        :: !mut_args
                    | _ -> ())
                  (nolabel_args args)
            | None -> ())
          | Texp_setfield (obj, _, _, _) ->
            record_touch obj e.exp_loc "writes field of"
          | Texp_field (obj, _, ld) when ld.Types.lbl_mut = Asttypes.Mutable
            ->
            record_touch obj e.exp_loc "reads mutable field of"
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  let it = iterator in
  List.iter (it.expr it) (warg :: bodies);
  {
    k_site = site_of env warg.exp_loc "closure";
    k_refs = List.sort_uniq compare_call (List.rev !refs);
    k_captured = List.sort_uniq compare_site (List.rev !captured);
    k_global = List.sort_uniq compare_site (List.rev !global);
    k_mut_args =
      List.sort_uniq
        (fun (ca, va, sa) (cb, vb, sb) ->
          let c = String.compare ca cb in
          if c <> 0 then c
          else
            let c = String.compare va vb in
            if c <> 0 then c else compare_site sa sb)
        (List.rev !mut_args);
  }

(* ------------------------------------------------------------- node walk *)

let walk_node env expr =
  let record_raise name loc =
    if not (caught_by env.filters name) then
      env.rs <- (name, site_of env loc ("raise " ^ name)) :: env.rs
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_try (body, handlers) ->
            let f = filter_of_handlers env.ctx handlers in
            let saved = env.filters in
            env.hs <- f :: env.hs;
            env.filters <- f :: saved;
            sub.Tast_iterator.expr sub body;
            env.filters <- saved;
            List.iter
              (fun c ->
                Option.iter (sub.Tast_iterator.expr sub) c.c_guard;
                sub.Tast_iterator.expr sub c.c_rhs)
              handlers
          | Texp_match (scrut, cases, _) ->
            let saved = env.filters in
            (match filter_of_match env.ctx cases with
            | Some f ->
              env.hs <- f :: env.hs;
              env.filters <- f :: saved
            | None -> ());
            sub.Tast_iterator.expr sub scrut;
            env.filters <- saved;
            List.iter
              (fun c ->
                Option.iter (sub.Tast_iterator.expr sub) c.c_guard;
                sub.Tast_iterator.expr sub c.c_rhs)
              cases
          | Texp_function _ ->
            (* lexical try handlers do not guard the body of a lambda —
               it runs at call time *)
            let saved = env.filters in
            env.filters <- [];
            Tast_iterator.default_iterator.expr sub e;
            env.filters <- saved
          | Texp_ident (p, _, _) ->
            (match resolve env.ctx p with
            | Some parts ->
              let stripped = strip_stdlib parts in
              if is_nondet stripped then (
                if not env.sanctioned then
                  env.nd <-
                    site_of env e.exp_loc (dotted stripped) :: env.nd)
              else if is_io stripped then
                env.io_sites <-
                  site_of env e.exp_loc (dotted stripped) :: env.io_sites
              else if
                (not (is_raise_head stripped))
                && (match parts with "Stdlib" :: _ -> false | _ -> true)
              then
                env.cs <-
                  {
                    callee = dotted parts;
                    csite = site_of env e.exp_loc "call";
                    catches = env.filters;
                  }
                  :: env.cs
            | None -> ());
            Tast_iterator.default_iterator.expr sub e
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
            (match resolve env.ctx p with
            | Some parts -> (
              let stripped = strip_stdlib parts in
              (if is_raise_head stripped then
                 match first_nolabel args with
                 | Some { exp_desc = Texp_construct (_, cd, _); _ } ->
                   Option.iter
                     (fun n -> record_raise n e.exp_loc)
                     (exn_of_construct env.ctx cd)
                 | _ -> () (* dynamic re-raise: handled via call edges *)
               else
                 match stripped with
                 | [ "failwith" ] -> record_raise "Failure" e.exp_loc
                 | [ "invalid_arg" ] ->
                   record_raise "Invalid_argument" e.exp_loc
                 | _ -> ());
              (if ref_write_op stripped then
                 match first_nolabel args with
                 | Some a -> (
                   match root_of ~bound:env.bound ~allocs:env.allocs env.ctx a
                   with
                   | Rglobal g ->
                     env.wg <-
                       site_of env e.exp_loc ("writes '" ^ g ^ "'") :: env.wg
                   | Rbound name ->
                     env.wa <-
                       site_of env e.exp_loc ("writes '" ^ name ^ "'")
                       :: env.wa
                   | Rlocal | Rarr | Runknown -> ())
                 | None -> ()
               else if ref_read_op stripped then
                 match first_nolabel args with
                 | Some a -> (
                   match root_of ~bound:env.bound ~allocs:env.allocs env.ctx a
                   with
                   | Rglobal g ->
                     env.rg <-
                       site_of env e.exp_loc ("reads '" ^ g ^ "'") :: env.rg
                   | _ -> ())
                 | None -> ());
              if List.exists (String.equal (dotted parts)) region_entries
              then begin
                let closures =
                  List.map (analyze_work_arg env) (nolabel_args args)
                in
                env.regions <-
                  {
                    r_entry = dotted parts;
                    r_site = site_of env e.exp_loc "parallel region";
                    r_closures = closures;
                  }
                  :: env.regions
              end)
            | None -> ());
            Tast_iterator.default_iterator.expr sub e
          | Texp_setfield (obj, _, _, _) ->
            (match root_of ~bound:env.bound ~allocs:env.allocs env.ctx obj with
            | Rglobal g ->
              env.wg <-
                site_of env e.exp_loc ("writes field of '" ^ g ^ "'")
                :: env.wg
            | Rbound name ->
              env.wa <-
                site_of env e.exp_loc ("writes field of '" ^ name ^ "'")
                :: env.wa
            | Rlocal | Rarr | Runknown -> ());
            Tast_iterator.default_iterator.expr sub e
          | Texp_field (obj, _, ld) when ld.Types.lbl_mut = Asttypes.Mutable
            ->
            (match root_of ~bound:env.bound ~allocs:env.allocs env.ctx obj with
            | Rglobal g ->
              env.rg <-
                site_of env e.exp_loc ("reads mutable field of '" ^ g ^ "'")
                :: env.rg
            | _ -> ());
            Tast_iterator.default_iterator.expr sub e
          | _ -> Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it expr

(* --------------------------------------------------------------- assembly *)

let of_unit ~sanctioned (u : Cmt_loader.unit_info) =
  let ctx = { vals = Hashtbl.create 64; mods = Hashtbl.create 16 } in
  let nodes = collect_nodes u ctx in
  List.map
    (fun node ->
      let bound, allocs, fns = collect_bound ctx node.n_expr in
      let env =
        {
          ctx;
          src = u.source;
          sanctioned = sanctioned u.source;
          bound;
          allocs;
          fns;
          filters = [];
          hs = [];
          wg = [];
          rg = [];
          wa = [];
          io_sites = [];
          nd = [];
          rs = [];
          cs = [];
          regions = [];
        }
      in
      walk_node env node.n_expr;
      let handlers = List.sort_uniq compare_filter env.hs in
      {
        fn = node.n_id;
        src = u.source;
        fn_line = node.n_line;
        writes_global = List.sort_uniq compare_site (List.rev env.wg);
        reads_global = List.sort_uniq compare_site (List.rev env.rg);
        writes_args = List.sort_uniq compare_site (List.rev env.wa);
        io = List.sort_uniq compare_site (List.rev env.io_sites);
        nondet = List.sort_uniq compare_site (List.rev env.nd);
        raises =
          List.sort_uniq compare_raise
            (List.filter
               (fun (n, _) -> not (caught_by handlers n))
               (List.rev env.rs));
        calls = List.sort_uniq compare_call (List.rev env.cs);
        regions = List.rev env.regions;
        handlers;
      })
    nodes

let of_units ~sanctioned units =
  List.concat_map (of_unit ~sanctioned) units
