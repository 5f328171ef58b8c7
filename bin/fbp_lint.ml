(* fbp-lint CLI: lint the repo's own sources with the Fbp_analysis rules
   and the typed whole-program pass, which needs the .cmt files of
   `dune build @check`.

   Exit codes: 0 clean, 1 findings (or a refused baseline update), 2
   file/parse errors, a file no typed unit covers (or bad usage).  Run
   from the repo root (paths are repo-relative); the @lint alias does this
   under dune with the source tree and .cmt artifacts as dependencies. *)

let usage =
  "usage: fbp_lint [--json] [--json-out FILE] [--baseline FILE] \
   [--update-baseline] [--cmt-root DIR] [--rules] [PATH...]\n\
   Lints .ml files under the given paths (default: lib bin bench) with the\n\
   per-file rules and the typed pass; `dune build @check` must first build\n\
   the .cmt files of every one of them.\n\
  \  --json             emit a JSON report instead of text\n\
  \  --json-out FILE    also write the JSON report to FILE\n\
  \  --baseline FILE    hide findings listed in FILE (one file:line:rule per \
   line)\n\
  \  --update-baseline  shrink FILE to the still-firing keys; refuses to add \
   entries\n\
  \  --cmt-root DIR     scan DIR for .cmt files (repeatable; default: the \
   build\n\
  \                     contexts of the lint paths)\n\
  \  --rules            list the rule catalogue and exit\n"

let () =
  let json = ref false in
  let json_out = ref None in
  let baseline = ref None in
  let update = ref false in
  let cmt_roots = ref [] in
  let list_rules = ref false in
  let paths = ref [] in
  let bad msg =
    prerr_string (msg ^ "\n" ^ usage);
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--json-out" :: file :: rest ->
      json_out := Some file;
      parse rest
    | "--json-out" :: [] -> bad "--json-out needs a file argument"
    | "--baseline" :: file :: rest ->
      baseline := Some file;
      parse rest
    | "--baseline" :: [] -> bad "--baseline needs a file argument"
    | "--update-baseline" :: rest ->
      update := true;
      parse rest
    | "--cmt-root" :: dir :: rest ->
      cmt_roots := dir :: !cmt_roots;
      parse rest
    | "--cmt-root" :: [] -> bad "--cmt-root needs a directory argument"
    | "--rules" :: rest ->
      list_rules := true;
      parse rest
    | "--help" :: _ | "-h" :: _ ->
      print_string usage;
      exit 0
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
      bad ("unknown option " ^ arg)
    | path :: rest ->
      paths := path :: !paths;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list_rules then begin
    List.iter
      (fun (id, summary) -> Printf.printf "%-17s %s\n" id summary)
      Fbp_analysis.Rules.catalogue;
    exit 0
  end;
  let roots =
    match List.rev !paths with [] -> [ "lib"; "bin"; "bench" ] | ps -> ps
  in
  let cmt_roots =
    match List.rev !cmt_roots with [] -> None | rs -> Some rs
  in
  if !update then begin
    let file =
      match !baseline with
      | Some f -> f
      | None -> bad "--update-baseline needs --baseline FILE"
    in
    (* ratchet: run without the baseline filter, then keep only the
       intersection of old keys and current findings.  Any finding not
       already baselined is a refusal — fix or suppress it instead. *)
    let report = Fbp_analysis.Lint.run_paths ?cmt_roots roots in
    let old_keys = Fbp_analysis.Lint.load_baseline (Some file) in
    let r =
      Fbp_analysis.Lint.ratchet ~old_keys
        ~current:report.Fbp_analysis.Lint.diagnostics
    in
    if r.Fbp_analysis.Lint.rejected <> [] then begin
      Printf.eprintf
        "fbp-lint: refusing to grow the baseline; %d finding(s) are not in \
         %s:\n"
        (List.length r.Fbp_analysis.Lint.rejected)
        file;
      List.iter (Printf.eprintf "  %s\n") r.Fbp_analysis.Lint.rejected;
      Printf.eprintf
        "fbp-lint: fix them or add an inline suppression with a reason.\n";
      exit 1
    end;
    let oc = open_out file in
    output_string oc
      "# fbp-lint baseline: one file:line:rule per line. Policy: keep empty.\n";
    List.iter (fun k -> output_string oc (k ^ "\n")) r.Fbp_analysis.Lint.kept;
    close_out oc;
    Printf.eprintf "fbp-lint: baseline %s: %d key(s) kept, %d retired\n" file
      (List.length r.Fbp_analysis.Lint.kept)
      (List.length r.Fbp_analysis.Lint.retired);
    exit 0
  end;
  let report =
    Fbp_analysis.Lint.run_paths ?baseline:!baseline ?cmt_roots roots
  in
  (match !json_out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc (Fbp_analysis.Lint.render_json report);
    close_out oc);
  print_string
    (if !json then Fbp_analysis.Lint.render_json report
     else Fbp_analysis.Lint.render_text report);
  match (report.Fbp_analysis.Lint.errors, report.Fbp_analysis.Lint.diagnostics)
  with
  | [], [] -> exit 0
  | [], _ -> exit 1
  | _, _ -> exit 2
