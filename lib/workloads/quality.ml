(* Paired quality runs: the FBP pipeline ([Runner.run_fbp], one domain)
   over the Table II designs and the Table IV/V movebound scenarios, at a
   list of seeds, with no timing, so a document is a pure function of the
   code, the seeds and the scale.  Two documents of the same runs compare
   pair by pair: HPWL is deterministic for a design and seed, so a paired
   ratio carries no noise at all. *)

open Fbp_util
module Json = Fbp_util.Json

type outcome = {
  hpwl : float;
  hpwl_global : float;
  legal : bool;
  violations : int;
  degradations : string list;
}

type run = {
  design : string;
  movebounds : string;
  seed : int;
  cells : int;
  outcome : (outcome, string) result;
}

(* The runs of one seed: every Table II design without movebounds, then
   the Table IV scenarios (inclusive), then the Table V ones (exclusive
   islands), as [fbp_place tables] builds them. *)
let cases ~quick =
  let keep name = (not quick) || List.exists (String.equal name) Designs.quick_names in
  let plain =
    Array.to_list Designs.table2_specs
    |> List.filter (fun (s : Designs.spec) -> keep s.Designs.name)
    |> List.map (fun (s : Designs.spec) -> (s.Designs.name, "none", None))
  in
  let scenario label (sc : Mb_gen.scenario) = (sc.Mb_gen.design, label, Some sc) in
  let inclusive =
    List.filter_map
      (fun (sc : Mb_gen.scenario) ->
        if keep sc.Mb_gen.design then
          Some
            (scenario "inclusive"
               { sc with Mb_gen.kind = Fbp_movebound.Movebound.Inclusive })
        else None)
      Mb_gen.table3_scenarios
  in
  let exclusive =
    List.filter_map
      (fun name ->
        if keep name then
          List.find_opt
            (fun (sc : Mb_gen.scenario) -> String.equal sc.Mb_gen.design name)
            Mb_gen.table3_scenarios
          |> Option.map (fun sc -> scenario "exclusive" (Mb_gen.exclusive_variant sc))
        else None)
      Mb_gen.table5_designs
  in
  plain @ inclusive @ exclusive

let config = { Fbp_core.Config.default with Fbp_core.Config.domains = 1 }

let run_case ~seed (design, movebounds, scenario) =
  let spec = Option.get (Designs.find_spec design) in
  let d = Designs.instantiate { spec with Designs.seed = spec.Designs.seed + seed } in
  let inst =
    match scenario with
    | None -> Fbp_movebound.Instance.unconstrained d
    | Some sc -> fst (Mb_gen.attach_feasible sc d)
  in
  let outcome =
    match Runner.run_fbp ~config inst with
    | Error e -> Error (Fbp_resilience.Fbp_error.to_string e)
    | Ok m ->
      Ok
        {
          hpwl = m.Runner.hpwl;
          hpwl_global = m.Runner.hpwl_global;
          legal = m.Runner.legal;
          violations = m.Runner.violations;
          degradations =
            List.map Fbp_core.Placer.degradation_to_string m.Runner.degradations;
        }
  in
  {
    design;
    movebounds;
    seed;
    cells = Fbp_netlist.Netlist.n_cells d.Fbp_netlist.Design.netlist;
    outcome;
  }

let runs ?(quick = false) ~seeds () =
  let cases = cases ~quick in
  List.concat_map (fun seed -> List.map (run_case ~seed) cases) seeds

(* ------------------------------------------------------------ document *)

let schema = "fbp-quality"

let run_json r =
  let base =
    [ ("design", Json.Str r.design); ("movebounds", Json.Str r.movebounds);
      ("seed", Json.int r.seed); ("cells", Json.int r.cells) ]
  in
  match r.outcome with
  | Error msg -> Json.Obj (base @ [ ("error", Json.Str msg) ])
  | Ok o ->
    Json.Obj
      (base
      @ [ ("hpwl", Json.Num o.hpwl); ("hpwl_global", Json.Num o.hpwl_global);
          ("legal", Json.Bool o.legal); ("violations", Json.int o.violations);
          ("degradations", Json.Arr (List.map (fun s -> Json.Str s) o.degradations)) ])

(* One run per line, so two documents diff run by run. *)
let to_string ~seeds runs =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":%S,\"version\":1,\"scale\":%s,\"seeds\":%s,\"runs\":["
       schema
       (Json.to_string (Json.Num (Designs.scale ())))
       (Json.to_string (Json.Arr (List.map Json.int seeds))));
  List.iteri
    (fun i r ->
      Buffer.add_string b (if i = 0 then "\n" else ",\n");
      Buffer.add_string b (Json.to_string (run_json r)))
    runs;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "run without %S" name)

let ( let* ) = Result.bind

let str name j =
  let* v = field name j in
  match v with Json.Str s -> Ok s | _ -> Error (name ^ ": not a string")

let num name j =
  let* v = field name j in
  match v with Json.Num f -> Ok f | _ -> Error (name ^ ": not a number")

let int_field name j =
  let* f = num name j in
  if Float.is_integer f then Ok (int_of_float f) else Error (name ^ ": not an integer")

let run_of_json j =
  let* design = str "design" j in
  let* movebounds = str "movebounds" j in
  let* seed = int_field "seed" j in
  let* cells = int_field "cells" j in
  let* outcome =
    match Json.member "error" j with
    | Some (Json.Str msg) -> Ok (Error msg)
    | Some _ -> Error "error: not a string"
    | None ->
      let* hpwl = num "hpwl" j in
      let* hpwl_global = num "hpwl_global" j in
      let* legal =
        match Json.member "legal" j with
        | Some (Json.Bool b) -> Ok b
        | _ -> Error "legal: not a boolean"
      in
      let* violations = int_field "violations" j in
      let* degradations =
        match Json.member "degradations" j with
        | Some (Json.Arr l) ->
          List.fold_right
            (fun v acc ->
              let* acc = acc in
              match v with
              | Json.Str s -> Ok (s :: acc)
              | _ -> Error "degradations: not a string list")
            l (Ok [])
        | _ -> Error "degradations: not a list"
      in
      Ok (Ok { hpwl; hpwl_global; legal; violations; degradations })
  in
  Ok { design; movebounds; seed; cells; outcome }

let of_string text =
  let* doc = Json.parse text in
  let* () =
    match Json.member "schema" doc with
    | Some (Json.Str s) when String.equal s schema -> Ok ()
    | _ -> Error ("not an " ^ schema ^ " document")
  in
  match Json.member "runs" doc with
  | Some (Json.Arr l) ->
    List.fold_right
      (fun j acc ->
        let* acc = acc in
        let* r = run_of_json j in
        Ok (r :: acc))
      l (Ok [])
  | _ -> Error "runs: not a list"

(* ------------------------------------------------------------- compare *)

type comparison = { lines : string list; regressions : int }

let same r o =
  String.equal r.design o.design && String.equal r.movebounds o.movebounds
  && r.seed = o.seed
let label r = Printf.sprintf "%s %s seed %d" r.design r.movebounds r.seed

let compare ~base ~cand =
  let paired =
    List.filter_map
      (fun b -> Option.map (fun c -> (b, c)) (List.find_opt (same b) cand))
      base
  in
  let unpaired runs others =
    List.length
      (List.filter (fun r -> not (List.exists (same r) others)) runs)
  in
  let ratios =
    List.filter_map
      (fun (b, c) ->
        match (b.outcome, c.outcome) with
        | Ok ob, Ok oc -> Some (c, oc.hpwl /. ob.hpwl)
        | _ -> None)
      paired
  in
  let worse frac = List.filter (fun (_, q) -> q > 1.0 +. frac) ratios in
  let legal_count runs =
    List.length
      (List.filter (fun r -> match r.outcome with Ok o -> o.legal | Error _ -> false) runs)
  in
  let regressions =
    List.filter_map
      (fun (b, c) ->
        match (b.outcome, c.outcome) with
        | Ok _, Error msg -> Some (Printf.sprintf "  %s: failed: %s" (label c) msg)
        | Ok ob, Ok oc when ob.legal && not oc.legal ->
          Some (Printf.sprintf "  %s: legal -> illegal" (label c))
        | Ok ob, Ok oc when oc.violations > ob.violations ->
          Some
            (Printf.sprintf "  %s: violations %d -> %d" (label c) ob.violations
               oc.violations)
        | _ -> None)
      paired
  in
  let ratio_line =
    match ratios with
    | [] -> "hpwl ratio (candidate / base): no paired runs"
    | _ ->
      let qs = Array.of_list (List.map snd ratios) in
      let wc, wq =
        List.fold_left (fun (bc, bq) (c, q) -> if q > bq then (c, q) else (bc, bq))
          (List.hd ratios) ratios
      in
      Printf.sprintf "hpwl ratio (candidate / base): median %.3f, worst %.3f (%s), %d of %d lower"
        (Stats.percentile qs 0.5) wq (label wc)
        (List.length (List.filter (fun (_, q) -> q < 1.0) ratios))
        (List.length ratios)
  in
  let lines =
    [ Printf.sprintf "paired runs: %d (unpaired: %d base, %d candidate)"
        (List.length paired) (unpaired base cand) (unpaired cand base);
      ratio_line;
      Printf.sprintf "worse by > 1%%: %d, by > 2%%: %d" (List.length (worse 0.01))
        (List.length (worse 0.02)) ]
    @ List.map (fun (c, q) -> Printf.sprintf "  %s: %.4f" (label c) q) (worse 0.01)
    @ [ Printf.sprintf "legal runs: %d -> %d" (legal_count (List.map fst paired))
          (legal_count (List.map snd paired));
        Printf.sprintf "legality or violation regressions: %d" (List.length regressions) ]
    @ regressions
  in
  { lines; regressions = List.length regressions }
