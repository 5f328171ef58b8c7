(* Interprocedural effect inference: fbp-lint v2.

   Loads every .cmt under the configured roots, extracts local effect
   summaries (Effects), builds the cross-module call graph (Callgraph),
   propagates effects to a fixpoint, and runs the three semantic rules:

   - domain-safety: mutable state reached *transitively* by any closure
     handed to the Pool entry points (not just directly captured).  The
     pool itself is the trusted synchronization layer: its own
     mutex-guarded internals are the implementation of the safe
     abstraction, so propagation is cut at that unit.
   - determinism: Random/Sys.time/Unix.gettimeofday taint, reported on
     every function reachable from the placer or fuzzer entry points,
     outside the sanctioned rng/timer wrappers.
   - error-taxonomy: every raise that can escape a CLI entry point must
     resolve to the typed Fbp_error taxonomy (or a sanctioned
     programming-error exception), keeping exit codes stable.

   All output orders are deterministic: summaries are sorted, BFS runs
   over sorted adjacency, diagnostics are sorted before returning. *)

module SiteSet = Set.Make (struct
  type t = Effects.site

  let compare = Effects.compare_site
end)

module RaiseSet = Set.Make (struct
  type t = string * Effects.site

  let compare = Effects.compare_raise
end)

type config = {
  cmt_roots : string list;
  det_entries : string list;  (* dotted prefixes *)
  cli_entries : string list;  (* dotted prefixes *)
  sanctioned_nondet : string list;  (* source-path suffixes *)
  trusted : string list;  (* dotted prefixes cut from shared-state propagation *)
  sanctioned_exns : string list;  (* canonical or short exception names *)
}

let default_config ~cmt_roots =
  {
    cmt_roots;
    det_entries = [ "Fbp_core.Placer.place"; "Fbp_workloads.Fuzz." ];
    cli_entries = [ "Fbp_place." ];
    sanctioned_nondet = [ "lib/util/rng.ml"; "lib/util/timer.ml" ];
    trusted = [ "Fbp_util.Pool." ];
    sanctioned_exns =
      [ "Fbp_resilience.Fbp_error.Error"; "Invalid_argument"; "Assert_failure" ];
  }

type result = {
  diagnostics : Diagnostic.t list;
  units_loaded : int;
  covered_sources : string list;  (* sorted source paths with typed coverage *)
  signatures : (string * string) list;  (* fn -> rendered effect signature *)
  load_errors : (string * string) list;
}

(* ---------------------------------------------------------------- fixpoint *)

type state = {
  mutable wg : SiteSet.t;
  mutable rg : SiteSet.t;
  mutable wa : SiteSet.t;
  mutable io : SiteSet.t;
  mutable nd : SiteSet.t;
  mutable rs : RaiseSet.t;
}

let state_of_summary (s : Effects.t) =
  {
    wg = SiteSet.of_list s.writes_global;
    rg = SiteSet.of_list s.reads_global;
    wa = SiteSet.of_list s.writes_args;
    io = SiteSet.of_list s.io;
    nd = SiteSet.of_list s.nondet;
    rs = RaiseSet.of_list s.raises;
  }

let fixpoint cfg g =
  let states = Hashtbl.create 256 in
  List.iter
    (fun id ->
      match Callgraph.find g id with
      | Some s -> Hashtbl.replace states id (state_of_summary s)
      | None -> ())
    (Callgraph.ids g);
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        match Callgraph.find g id with
        | None -> ()
        | Some summary ->
          let st = Hashtbl.find states id in
          List.iter
            (fun (c : Effects.call) ->
              match Hashtbl.find_opt states c.Effects.callee with
              | None -> ()
              | Some cs ->
                let add_sites get set =
                  let merged = SiteSet.union (get st) (get cs) in
                  if SiteSet.cardinal merged > SiteSet.cardinal (get st) then begin
                    set st merged;
                    changed := true
                  end
                in
                (* raises survive the call only if no enclosing handler at
                   the call site stops them; the caller's node-level
                   handler set also applies, covering handlers that wrap
                   the call dynamically (lambda bodies, local helpers
                   defined inside the try) rather than lexically *)
                let escaping =
                  RaiseSet.filter
                    (fun (n, _) ->
                      (not (Effects.caught_by c.catches n))
                      && not
                           (Effects.caught_by summary.Effects.handlers n))
                    cs.rs
                in
                let merged_rs = RaiseSet.union st.rs escaping in
                if RaiseSet.cardinal merged_rs > RaiseSet.cardinal st.rs
                then begin
                  st.rs <- merged_rs;
                  changed := true
                end;
                if not (Callgraph.matches_prefix cfg.trusted c.callee) then begin
                  add_sites (fun s -> s.wg) (fun s v -> s.wg <- v);
                  add_sites (fun s -> s.rg) (fun s v -> s.rg <- v);
                  add_sites (fun s -> s.wa) (fun s v -> s.wa <- v);
                  add_sites (fun s -> s.io) (fun s v -> s.io <- v);
                  add_sites (fun s -> s.nd) (fun s v -> s.nd <- v)
                end)
            summary.Effects.calls)
      (Callgraph.ids g)
  done;
  states

(* -------------------------------------------------------------- signatures *)

let short_exn n =
  match String.rindex_opt n '.' with
  | Some i -> String.sub n (i + 1) (String.length n - i - 1)
  | None -> n

let signature_of st =
  let parts = ref [] in
  let add s = parts := s :: !parts in
  if not (SiteSet.is_empty st.wg) then
    add (Printf.sprintf "writes_shared(%d)" (SiteSet.cardinal st.wg));
  if not (SiteSet.is_empty st.rg) then
    add (Printf.sprintf "reads_mutable(%d)" (SiteSet.cardinal st.rg));
  if not (SiteSet.is_empty st.wa) then
    add (Printf.sprintf "writes_args(%d)" (SiteSet.cardinal st.wa));
  if not (SiteSet.is_empty st.io) then add "io";
  if not (SiteSet.is_empty st.nd) then add "nondeterministic";
  if not (RaiseSet.is_empty st.rs) then
    add
      (Printf.sprintf "raises(%s)"
         (String.concat "|"
            (List.sort_uniq String.compare
               (List.map
                  (fun (n, _) -> short_exn n)
                  (RaiseSet.elements st.rs)))));
  match !parts with [] -> "pure" | ps -> String.concat " " (List.rev ps)

(* ------------------------------------------------------------------- rules *)

let has_local_shared (s : Effects.t) =
  s.Effects.writes_global <> [] || s.Effects.reads_global <> []

let min_site set = SiteSet.min_elt_opt set

let diag_of_site ~rule ?hint (s : Effects.site) msg =
  Diagnostic.make_pos ~rule ~file:s.Effects.sfile ~line:s.Effects.sline
    ~col:s.Effects.scol ?hint msg

let domain_safety cfg g states =
  let hint =
    "keep worker state chunk-private (allocate inside the closure), use \
     Atomic, or write into disjoint pre-sized slots"
  in
  let out = ref [] in
  List.iter
    (fun id ->
      match Callgraph.find g id with
      | None -> ()
      | Some summary ->
        List.iter
          (fun (r : Effects.region) ->
            List.iter
              (fun (k : Effects.closure_info) ->
                List.iter
                  (fun (s : Effects.site) ->
                    out :=
                      diag_of_site ~rule:"domain-safety" ~hint s
                        (Printf.sprintf
                           "closure passed to %s %s captured from the \
                            enclosing function; mutable captures race \
                            across worker domains"
                           r.r_entry s.swhat)
                      :: !out)
                  k.k_captured;
                List.iter
                  (fun (s : Effects.site) ->
                    out :=
                      diag_of_site ~rule:"domain-safety" ~hint s
                        (Printf.sprintf
                           "closure passed to %s %s; module-level mutable \
                            state is shared across worker domains"
                           r.r_entry s.swhat)
                      :: !out)
                  k.k_global;
                let seen = Hashtbl.create 8 in
                List.iter
                  (fun (c : Effects.call) ->
                    if
                      (not (Hashtbl.mem seen c.Effects.callee))
                      && (not
                            (Callgraph.matches_prefix cfg.trusted
                               c.Effects.callee))
                      && not (String.equal c.Effects.callee id)
                    then begin
                      Hashtbl.replace seen c.Effects.callee ();
                      match Hashtbl.find_opt states c.Effects.callee with
                      | Some st
                        when not
                               (SiteSet.is_empty st.wg
                               && SiteSet.is_empty st.rg) -> (
                        match
                          Callgraph.chain g ~src:c.Effects.callee
                            ~stop:has_local_shared
                            ~skip:(Callgraph.matches_prefix cfg.trusted)
                        with
                        | Some path ->
                          let target =
                            match
                              Callgraph.find g (List.nth path (List.length path - 1))
                            with
                            | Some t -> t
                            | None -> summary
                          in
                          let site =
                            match
                              min_site
                                (SiteSet.of_list
                                   (target.Effects.writes_global
                                   @ target.Effects.reads_global))
                            with
                            | Some s -> s
                            | None -> c.Effects.csite
                          in
                          out :=
                            diag_of_site ~rule:"domain-safety" ~hint
                              c.Effects.csite
                              (Printf.sprintf
                                 "closure passed to %s transitively reaches \
                                  shared mutable state: %s (%s at %s:%d)"
                                 r.r_entry
                                 (Callgraph.render_chain path)
                                 site.Effects.swhat site.Effects.sfile
                                 site.Effects.sline)
                            :: !out
                        | None -> ())
                      | _ -> ()
                    end)
                  k.k_refs;
                List.iter
                  (fun (callee, var, site) ->
                    match Hashtbl.find_opt states callee with
                    | Some st when not (SiteSet.is_empty st.wa) ->
                      out :=
                        diag_of_site ~rule:"domain-safety" ~hint site
                          (Printf.sprintf
                             "closure passed to %s hands captured mutable \
                              '%s' to %s, which writes through its \
                              arguments"
                             r.r_entry var callee)
                        :: !out
                    | _ -> ())
                  k.k_mut_args)
              r.r_closures)
          summary.Effects.regions)
    (Callgraph.ids g);
  !out

let determinism cfg g =
  let hint =
    "route randomness through Fbp_util.Rng and timing through \
     Fbp_util.Timer so runs stay replayable"
  in
  let paths = Callgraph.reach_from g ~prefixes:cfg.det_entries in
  let out = ref [] in
  List.iter
    (fun id ->
      match Hashtbl.find_opt paths id with
      | None -> ()
      | Some path -> (
        match Callgraph.find g id with
        | None -> ()
        | Some summary ->
          List.iter
            (fun (s : Effects.site) ->
              out :=
                diag_of_site ~rule:"determinism" ~hint s
                  (Printf.sprintf
                     "nondeterminism source %s is reachable from %s: %s"
                     s.swhat (List.hd path)
                     (Callgraph.render_chain path))
                :: !out)
            summary.Effects.nondet))
    (Callgraph.ids g);
  !out

let sanctioned_exn cfg name =
  List.exists
    (fun s -> String.equal name s || String.equal (short_exn name) s)
    cfg.sanctioned_exns

let error_taxonomy cfg g states =
  let hint =
    "convert at the boundary with Fbp_resilience.Fbp_error.of_exn / \
     raise_error so the exit code stays in the documented taxonomy"
  in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun id ->
      if Callgraph.matches_prefix cfg.cli_entries id then
        match Hashtbl.find_opt states id with
        | None -> ()
        | Some st ->
          RaiseSet.iter
            (fun (name, site) ->
              if not (sanctioned_exn cfg name) then begin
                let key =
                  Printf.sprintf "%s:%s:%d:%s" name site.Effects.sfile
                    site.Effects.sline name
                in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.replace seen key ();
                  out :=
                    diag_of_site ~rule:"error-taxonomy" ~hint site
                      (Printf.sprintf
                         "raise of %s can escape CLI entry %s without \
                          resolving to the Fbp_error taxonomy"
                         name id)
                    :: !out
                end
              end)
            st.rs)
    (Callgraph.ids g);
  !out

(* ---------------------------------------------------------------- analyze *)

let analyze_units cfg units load_errors =
  let sanctioned src =
    List.exists
      (fun sfx -> String.ends_with ~suffix:sfx src)
      cfg.sanctioned_nondet
  in
  let summaries = Effects.of_units ~sanctioned units in
  let g = Callgraph.build summaries in
  let states = fixpoint cfg g in
  let diagnostics =
    List.sort_uniq Diagnostic.compare
      (domain_safety cfg g states @ determinism cfg g
     @ error_taxonomy cfg g states)
  in
  let signatures =
    List.filter_map
      (fun id ->
        Option.map (fun st -> (id, signature_of st)) (Hashtbl.find_opt states id))
      (Callgraph.ids g)
  in
  let covered_sources =
    List.sort_uniq String.compare
      (List.map (fun (u : Cmt_loader.unit_info) -> u.source) units)
  in
  {
    diagnostics;
    units_loaded = List.length units;
    covered_sources;
    signatures;
    load_errors;
  }

let analyze cfg =
  let units, load_errors = Cmt_loader.scan ~roots:cfg.cmt_roots in
  analyze_units cfg units load_errors
