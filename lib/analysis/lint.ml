(* Lint driver: file gathering, parsing, the typed pass, suppression,
   baselining, rendering.  Pure except for reading source and .cmt files
   — printing and exit codes belong to bin/fbp_lint. *)

type report = {
  files_scanned : int;
  diagnostics : Diagnostic.t list;
  baselined : int;
  errors : (string * string) list;
  interproc_units : int;  (* typed units the interprocedural pass loaded *)
}

let parse ~path src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  Ppxlib.Parse.implementation lexbuf

let lint_string ~path src =
  let st = parse ~path src in
  let findings = Rules.run ~file:path st in
  let sups, malformed = Suppress.scan ~file:path src in
  List.sort Diagnostic.compare
    (Suppress.apply ~file:path sups (findings @ malformed))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file path =
  match read_file path with
  | exception Sys_error why -> Error why
  | src -> (
    match lint_string ~path src with
    | diags -> Ok diags
    | exception exn -> Error (Printexc.to_string exn))

(* ------------------------------------------------------------- gathering *)

let skip_dir name =
  String.equal name "_build" || String.equal name "_opam"
  || (String.length name > 0 && name.[0] = '.')

let gather_files roots =
  let acc = ref [] in
  let rec visit path =
    if Sys.is_directory path then begin
      let entries = Sys.readdir path in
      Array.sort String.compare entries;
      Array.iter
        (fun entry ->
          if not (skip_dir entry) then visit (Filename.concat path entry))
        entries
    end
    else if String.ends_with ~suffix:".ml" path then acc := path :: !acc
  in
  List.iter (fun root -> if Sys.file_exists root then visit root) roots;
  List.sort String.compare !acc

let missing_root = "no such file or directory: a lint root must exist"

(* -------------------------------------------------------------- baseline *)

let load_baseline = function
  | None -> []
  | Some path -> (
    match read_file path with
    | exception Sys_error _ -> []
    | content ->
      String.split_on_char '\n' content
      |> List.filter_map (fun line ->
             let line = String.trim line in
             if String.equal line "" || line.[0] = '#' then None else Some line)
    )

(* ------------------------------------------------------------------- run *)

(* The interprocedural pass reports source paths as the compiler recorded
   them (workspace-relative); the gatherer sees them relative to the cwd.
   Suffix-tolerant equality bridges the two without a path-normalization
   dependency. *)
let same_source a b =
  String.equal a b
  || String.ends_with ~suffix:("/" ^ b) a
  || String.ends_with ~suffix:("/" ^ a) b

let uncovered =
  "no typed unit covers this file: build the .cmt files with `dune build \
   @check`, or pass the directory holding them as a cmt root"

let run_paths ?baseline ?cmt_roots roots =
  let keys = load_baseline baseline in
  let in_baseline d = List.exists (String.equal (Diagnostic.key d)) keys in
  let files = gather_files roots in
  (* a mistyped root would lint nothing and pass *)
  let missing =
    List.filter_map
      (fun root ->
        if Sys.file_exists root then None else Some (root, missing_root))
      roots
  in
  let cmt_roots =
    match cmt_roots with
    | Some rs -> rs
    | None -> Cmt_loader.default_roots roots
  in
  let ip = Interproc.analyze (Interproc.default_config ~cmt_roots) in
  let covered file =
    List.exists (same_source file) ip.Interproc.covered_sources
  in
  (* interprocedural findings for one gathered file, rekeyed to the
     gathered path so suppressions and baselines match *)
  let matched = Hashtbl.create 16 in
  let ip_diags_for file =
    List.filter_map
      (fun (d : Diagnostic.t) ->
        if same_source d.Diagnostic.file file then begin
          Hashtbl.replace matched d.Diagnostic.file ();
          Some { d with Diagnostic.file }
        end
        else None)
      ip.Interproc.diagnostics
  in
  let diags = ref [] and errors = ref [] and hidden = ref 0 in
  List.iter
    (fun file ->
      let result =
        if not (covered file) then Error uncovered
        else
          match read_file file with
          | exception Sys_error why -> Error why
          | src -> (
            try
              let st = parse ~path:file src in
              let sups, malformed = Suppress.scan ~file src in
              Ok
                (List.sort Diagnostic.compare
                   (Suppress.apply ~file sups
                      (Rules.run ~file st @ malformed @ ip_diags_for file)))
            with exn -> Error (Printexc.to_string exn))
      in
      match result with
      | Error why -> errors := (file, why) :: !errors
      | Ok ds ->
        List.iter
          (fun d -> if in_baseline d then incr hidden else diags := d :: !diags)
          ds)
    files;
  (* interprocedural findings in sources outside the gathered roots (or
     whose path never matched) must not be dropped silently *)
  List.iter
    (fun (d : Diagnostic.t) ->
      if not (Hashtbl.mem matched d.Diagnostic.file) then
        if in_baseline d then incr hidden else diags := d :: !diags)
    ip.Interproc.diagnostics;
  {
    files_scanned = List.length files;
    diagnostics = List.sort Diagnostic.compare !diags;
    baselined = !hidden;
    errors = missing @ List.rev_append !errors ip.Interproc.load_errors;
    interproc_units = ip.Interproc.units_loaded;
  }

let failed r =
  (match r.diagnostics with [] -> false | _ -> true)
  || match r.errors with [] -> false | _ -> true

(* -------------------------------------------------------------- ratchet *)

type ratchet = {
  kept : string list;  (* old keys still firing: the new baseline *)
  retired : string list;  (* old keys no longer firing: shrinkage *)
  rejected : string list;  (* current findings absent from the old file *)
}

(* The committed baseline may shrink but never grow: an --update-baseline
   run keeps only the intersection and refuses outright if any current
   finding is not already baselined. *)
let ratchet ~old_keys ~current =
  let current_keys =
    List.sort_uniq String.compare (List.map Diagnostic.key current)
  in
  let mem k l = List.exists (String.equal k) l in
  {
    kept = List.filter (fun k -> mem k current_keys) old_keys;
    retired = List.filter (fun k -> not (mem k current_keys)) old_keys;
    rejected = List.filter (fun k -> not (mem k old_keys)) current_keys;
  }

(* ------------------------------------------------------------- rendering *)

let summary_line r =
  Printf.sprintf "fbp-lint: %d file%s scanned, %d finding%s (%d typed units)%s%s"
    r.files_scanned
    (if r.files_scanned = 1 then "" else "s")
    (List.length r.diagnostics)
    (if List.length r.diagnostics = 1 then "" else "s")
    r.interproc_units
    (if r.baselined > 0 then Printf.sprintf ", %d baselined" r.baselined
     else "")
    (match r.errors with
    | [] -> ""
    | es ->
      Printf.sprintf ", %d file error%s" (List.length es)
        (if List.length es = 1 then "" else "s"))

let render_text r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun d ->
      Buffer.add_string buf (Diagnostic.to_text d);
      Buffer.add_char buf '\n')
    r.diagnostics;
  List.iter
    (fun (file, why) ->
      Buffer.add_string buf (Printf.sprintf "%s: error: %s\n" file why))
    r.errors;
  Buffer.add_string buf (summary_line r);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let render_json r =
  let module J = Fbp_util.Json in
  J.to_string
    (J.Obj
       [
         ("findings", J.Arr (List.map Diagnostic.to_json r.diagnostics));
         ( "errors",
           J.Arr
             (List.map
                (fun (file, why) -> J.Obj [ ("file", J.Str file); ("error", J.Str why) ])
                r.errors) );
         ("files_scanned", J.int r.files_scanned);
         ("baselined", J.int r.baselined);
         ("interproc_units", J.int r.interproc_units);
         ("clean", J.Bool (not (failed r)));
       ])
  ^ "\n"
