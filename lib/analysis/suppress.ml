(* Inline suppression comments, parsed from raw source text (comments never
   reach the parsetree, so this pass works on lines).  See the interface for
   the grammar.

   Note the marker string is assembled from two halves everywhere in this
   module: these sources are linted too, and a literal marker inside a
   string constant would otherwise read as a (malformed) directive. *)

type t = {
  line : int;
  rules : string list;
  reason : string;
  mutable used : bool;
}

let marker = "fbp-" ^ "lint:"
let directive_rule = "lint-directive"

let is_rule_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

(* Parse the text following the marker on one line.  Returns [Ok (rules,
   reason)] or [Error what]. *)
let parse_directive rest =
  let n = String.length rest in
  let pos = ref 0 in
  let skip_spaces () =
    while !pos < n && (rest.[!pos] = ' ' || rest.[!pos] = '\t') do incr pos done
  in
  let word () =
    let start = !pos in
    while !pos < n && is_rule_char rest.[!pos] do incr pos done;
    String.sub rest start (!pos - start)
  in
  skip_spaces ();
  if word () <> "allow" then Error "expected 'allow' after the marker"
  else begin
    let rules = ref [] in
    let rec rule_list () =
      skip_spaces ();
      let r = word () in
      if r = "" then Error "empty rule name"
      else begin
        rules := r :: !rules;
        skip_spaces ();
        if !pos < n && rest.[!pos] = ',' then begin
          incr pos;
          rule_list ()
        end
        else Ok ()
      end
    in
    match rule_list () with
    | Error e -> Error e
    | Ok () ->
      skip_spaces ();
      (* separator: an em-dash, one or more '-', or ':' *)
      let sep =
        if !pos + 2 < n && String.sub rest !pos 3 = "\xe2\x80\x94" then begin
          pos := !pos + 3;
          true
        end
        else if !pos < n && rest.[!pos] = '-' then begin
          while !pos < n && rest.[!pos] = '-' do incr pos done;
          true
        end
        else if !pos < n && rest.[!pos] = ':' then begin
          incr pos;
          true
        end
        else false
      in
      if not sep then Error "missing separator before the reason"
      else begin
        let tail = String.sub rest !pos (n - !pos) in
        let reason =
          match String.index_opt tail '*' with
          | Some i when i + 1 < String.length tail && tail.[i + 1] = ')' ->
            String.sub tail 0 i
          | _ -> tail
        in
        let reason = String.trim reason in
        if reason = "" then Error "missing reason"
        else Ok (List.rev !rules, reason)
      end
  end

let find_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = sub then Some i
    else go (i + 1)
  in
  go 0

let scan ~file src =
  let sups = ref [] and diags = ref [] in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i line ->
      let lnum = i + 1 in
      match find_sub line marker with
      | None -> ()
      (* Only a marker inside a comment counts: a "(*" must open on the
         same line before it.  This keeps the marker usable in ordinary
         string literals (the CLI's own summary line says fbp-lint). *)
      | Some at
        when (match find_sub (String.sub line 0 at) "(*" with
             | Some _ -> false
             | None -> true) ->
        ()
      | Some at ->
        let rest = String.sub line (at + String.length marker)
            (String.length line - at - String.length marker)
        in
        (match parse_directive rest with
         | Ok (rules, reason) ->
           sups := { line = lnum; rules; reason; used = false } :: !sups
         | Error what ->
           let loc = Ppxlib.Location.none in
           let d =
             { (Diagnostic.make ~rule:directive_rule ~file ~loc
                  (Printf.sprintf "malformed suppression directive: %s" what))
               with Diagnostic.line = lnum; end_line = lnum; col = at;
                    end_col = at }
           in
           diags := d :: !diags))
    lines;
  (List.rev !sups, List.rev !diags)

let apply ~file sups diags =
  let survives (d : Diagnostic.t) =
    String.equal d.Diagnostic.rule directive_rule
    ||
    not
      (List.exists
         (fun s ->
           (s.line = d.Diagnostic.line || s.line = d.Diagnostic.line - 1)
           && List.exists (String.equal d.Diagnostic.rule) s.rules
           && begin
                s.used <- true;
                true
              end)
         sups)
  in
  let kept = List.filter survives diags in
  let unused =
    List.filter_map
      (fun s ->
        if s.used then None
        else
          let loc = Ppxlib.Location.none in
          Some
            { (Diagnostic.make ~rule:directive_rule ~file ~loc
                 (Printf.sprintf "unused suppression for [%s]: no finding on this or the next line"
                    (String.concat ", " s.rules)))
              with Diagnostic.line = s.line; end_line = s.line; col = 0;
                   end_col = 0 }
      )
      sups
  in
  kept @ unused
