(* Reproduction of every table in the paper's evaluation section.

   Each [tableN] function generates the workloads, runs the placers and
   renders an ASCII table shaped like the paper's, with the paper's own
   numbers alongside for comparison.  Absolute values differ (synthetic
   scaled instances, different machine — see DESIGN.md); the quantities to
   compare are the ratios. *)

open Fbp_util


let fmt_hpwl_k v = Printf.sprintf "%.1f" (v /. 1e3)

let or_fail = function
  | Ok v -> v
  | Error e -> Fbp_resilience.Fbp_error.raise_error e

(* ---------------------------------------------------------------- Table I *)

(* FBP instance sizes and runtimes per grid level, on the largest movebound
   design (the paper uses Erhard: 2.58M cells, 43 movebounds). *)
let table1 ?(design = "erhard") () =
  let spec =
    match Designs.find_spec design with
    | Some s -> s
    | None ->
      Fbp_resilience.Fbp_error.raise_error
        (Fbp_resilience.Fbp_error.Invalid_input ("unknown design " ^ design))
  in
  let d = Designs.instantiate spec in
  let scenario =
    List.find (fun (s : Mb_gen.scenario) -> s.Mb_gen.design = design)
      Mb_gen.table3_scenarios
  in
  let inst = Mb_gen.attach scenario d in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "TABLE I: FBP instance sizes and runtimes per grid level (%s-s: %d cells, %d movebounds; paper: Erhard 2 578 246 cells, 43 movebounds)"
           design
           (Fbp_netlist.Netlist.n_cells d.Fbp_netlist.Design.netlist)
           (Fbp_movebound.Instance.n_movebounds inst))
      ~header:[ "|V|"; "|E|"; "|E|/|V|"; "|W|"; "|R|"; "flow-comp"; "realization" ]
      ()
  in
  let metrics = or_fail (Runner.run_fbp inst) in
  List.iter
    (fun (lr : Fbp_core.Placer.level_report) ->
      Table.add_row t
        [
          Table.fmt_k lr.Fbp_core.Placer.flow_nodes;
          Table.fmt_k lr.Fbp_core.Placer.flow_edges;
          Printf.sprintf "%.1f"
            (float_of_int lr.Fbp_core.Placer.flow_edges
            /. float_of_int (max 1 lr.Fbp_core.Placer.flow_nodes));
          string_of_int lr.Fbp_core.Placer.n_windows;
          string_of_int lr.Fbp_core.Placer.n_pieces;
          Duration.pretty lr.Fbp_core.Placer.flow_time;
          Duration.pretty lr.Fbp_core.Placer.realization_time;
        ])
    metrics.Runner.levels;
  (t, metrics)

(* --------------------------------------------------------------- Table II *)

type row2 = {
  name : string;
  n_cells : int;
  rql : Runner.metrics;
  fbp : Runner.metrics;
  paper_pct : float;
  paper_speedup : float;
}

let run_table2_design (spec : Designs.spec) =
  let d = Designs.instantiate spec in
  let inst = Fbp_movebound.Instance.unconstrained d in
  let rql = or_fail (Runner.run_rql inst) in
  let fbp = or_fail (Runner.run_fbp inst) in
  {
    name = spec.Designs.name;
    n_cells = Fbp_netlist.Netlist.n_cells d.Fbp_netlist.Design.netlist;
    rql;
    fbp;
    paper_pct = spec.Designs.paper_fbp_hpwl_pct;
    paper_speedup = spec.Designs.paper_fbp_speedup;
  }

let table2 ?(names : string list option) () =
  let specs =
    match names with
    | None -> Array.to_list Designs.table2_specs
    | Some ns ->
      List.filter_map Designs.find_spec ns
  in
  let rows = List.map run_table2_design specs in
  let t =
    Table.create
      ~title:
        "TABLE II: instances without movebounds — RQL (repro) vs BonnPlace FBP (repro); 'paper%' / 'paper x' are the original Table II ratios"
      ~header:
        [ "chip"; "|C|"; "RQL HPWL"; "RQL t"; "FBP HPWL"; "FBP t"; "FBP %";
          "paper %"; "speedup"; "paper x" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun r ->
      let pct = 100.0 *. r.fbp.Runner.hpwl /. r.rql.Runner.hpwl in
      let speedup = r.rql.Runner.total_time /. Float.max 1e-6 r.fbp.Runner.total_time in
      Table.add_row t
        [
          r.name;
          Table.fmt_k r.n_cells;
          fmt_hpwl_k r.rql.Runner.hpwl;
          Duration.pretty r.rql.Runner.total_time;
          fmt_hpwl_k r.fbp.Runner.hpwl;
          Duration.pretty r.fbp.Runner.total_time;
          Printf.sprintf "%.1f%%" pct;
          Printf.sprintf "%.1f%%" r.paper_pct;
          Printf.sprintf "%.1fx" speedup;
          Printf.sprintf "%.1fx" r.paper_speedup;
        ])
    rows;
  Table.add_sep t;
  let total_rql = List.fold_left (fun a r -> a +. r.rql.Runner.hpwl) 0.0 rows in
  let total_fbp = List.fold_left (fun a r -> a +. r.fbp.Runner.hpwl) 0.0 rows in
  let time_rql = List.fold_left (fun a r -> a +. r.rql.Runner.total_time) 0.0 rows in
  let time_fbp = List.fold_left (fun a r -> a +. r.fbp.Runner.total_time) 0.0 rows in
  Table.add_row t
    [
      "Total"; "";
      fmt_hpwl_k total_rql;
      Duration.pretty time_rql;
      fmt_hpwl_k total_fbp;
      Duration.pretty time_fbp;
      Printf.sprintf "%.1f%%" (100.0 *. total_fbp /. total_rql);
      "99.3%";
      Printf.sprintf "%.1fx" (time_rql /. Float.max 1e-6 time_fbp);
      "5.5x";
    ];
  (t, rows)

(* -------------------------------------------------------------- Table III *)

let table3 ?(scenarios = Mb_gen.table3_scenarios) () =
  let t =
    Table.create
      ~title:"TABLE III: movebound instance statistics (synthetic scenarios mirroring the paper rows)"
      ~header:[ "chip"; "|M|"; "|C|"; "% cells w/ mb"; "max mb dens"; "remarks" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
      ()
  in
  let instances =
    List.map
      (fun (sc : Mb_gen.scenario) ->
        let spec = Option.get (Designs.find_spec sc.Mb_gen.design) in
        let d = Designs.instantiate spec in
        let inst = Mb_gen.attach sc d in
        let st = Mb_gen.stats_of sc inst in
        Table.add_row t
          [
            sc.Mb_gen.design;
            string_of_int st.Mb_gen.n_movebounds;
            Table.fmt_k st.Mb_gen.n_cells;
            Printf.sprintf "%.1f%%" (100.0 *. st.Mb_gen.pct_bound);
            Printf.sprintf "%.0f%%" (100.0 *. st.Mb_gen.max_mb_density);
            (if st.Mb_gen.overlapping && st.Mb_gen.flattened then "(O)(F)"
             else if st.Mb_gen.overlapping then "(O)"
             else if st.Mb_gen.flattened then "(F)"
             else "");
          ];
        (sc, inst))
      scenarios
  in
  (t, instances)

(* ------------------------------------------------------- Tables IV, V, VI *)

type row_mb = {
  mname : string;
  mrql : Runner.metrics;
  mfbp : Runner.metrics;
}

let paper_pct_t4 =
  [ ("rabe", 74.6); ("ashraf", nan); ("erhard", 90.8); ("tomoku", 49.8);
    ("trips", 86.9); ("andre", 45.2); ("ludwig", 51.7); ("erik", 68.0) ]

let paper_pct_t5 =
  [ ("rabe", 76.8); ("ashraf", 69.1); ("erhard", 81.9); ("andre", 43.2); ("erik", 72.3) ]

let run_movebound_rows ~(kind : Fbp_movebound.Movebound.kind)
    (scenarios : Mb_gen.scenario list) =
  List.filter_map
    (fun (sc : Mb_gen.scenario) ->
      let sc = { sc with Mb_gen.kind } in
      let spec = Option.get (Designs.find_spec sc.Mb_gen.design) in
      let d = Designs.instantiate spec in
      let inst, _coverage = Mb_gen.attach_feasible sc d in
      match (Runner.run_rql inst, Runner.run_fbp inst) with
      | Ok mrql, Ok mfbp -> Some { mname = sc.Mb_gen.design; mrql; mfbp }
      | Error e, _ | _, Error e ->
        Printf.eprintf "[tables] %s (%s): %s\n" sc.Mb_gen.design
          (Fbp_movebound.Movebound.kind_to_string kind)
          (Fbp_resilience.Fbp_error.to_string e);
        None)
    scenarios

let render_movebound_table ~title ~paper_pct rows =
  let t =
    Table.create ~title
      ~header:
        [ "chip"; "RQL HPWL"; "RQL t"; "RQL viol"; "FBP HPWL"; "FBP t"; "FBP viol";
          "FBP %"; "paper %"; "speedup" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun r ->
      let pct = 100.0 *. r.mfbp.Runner.hpwl /. r.mrql.Runner.hpwl in
      let paper =
        match
          List.find_map
            (fun (k, v) -> if String.equal k r.mname then Some v else None)
            paper_pct
        with
        | Some v when not (Float.is_nan v) -> Printf.sprintf "%.1f%%" v
        | _ -> "(crashed)"
      in
      Table.add_row t
        [
          r.mname;
          fmt_hpwl_k r.mrql.Runner.hpwl;
          Duration.pretty r.mrql.Runner.total_time;
          string_of_int r.mrql.Runner.violations;
          fmt_hpwl_k r.mfbp.Runner.hpwl;
          Duration.pretty r.mfbp.Runner.total_time;
          string_of_int r.mfbp.Runner.violations;
          Printf.sprintf "%.1f%%" pct;
          paper;
          Printf.sprintf "%.1fx"
            (r.mrql.Runner.total_time /. Float.max 1e-6 r.mfbp.Runner.total_time);
        ])
    rows;
  Table.add_sep t;
  let tr = List.fold_left (fun a r -> a +. r.mrql.Runner.hpwl) 0.0 rows in
  let tf = List.fold_left (fun a r -> a +. r.mfbp.Runner.hpwl) 0.0 rows in
  let trt = List.fold_left (fun a r -> a +. r.mrql.Runner.total_time) 0.0 rows in
  let tft = List.fold_left (fun a r -> a +. r.mfbp.Runner.total_time) 0.0 rows in
  Table.add_row t
    [
      "Total"; fmt_hpwl_k tr; Duration.pretty trt;
      string_of_int (List.fold_left (fun a r -> a + r.mrql.Runner.violations) 0 rows);
      fmt_hpwl_k tf; Duration.pretty tft;
      string_of_int (List.fold_left (fun a r -> a + r.mfbp.Runner.violations) 0 rows);
      Printf.sprintf "%.1f%%" (100.0 *. tf /. tr);
      "";
      Printf.sprintf "%.1fx" (trt /. Float.max 1e-6 tft);
    ];
  t

let table4 ?(scenarios = Mb_gen.table3_scenarios) () =
  let rows = run_movebound_rows ~kind:Fbp_movebound.Movebound.Inclusive scenarios in
  ( render_movebound_table
      ~title:
        "TABLE IV: inclusive movebounds — RQL (repro) vs BonnPlace FBP (repro); paper totals: FBP = 64.5% HPWL, 9.6x faster"
      ~paper_pct:paper_pct_t4 rows,
    rows )

let table5 ?(designs = Mb_gen.table5_designs) () =
  (* each design's scenario with its bounds as exclusive islands *)
  let scenarios =
    List.filter_map
      (fun name ->
        List.find_opt (fun (sc : Mb_gen.scenario) -> sc.Mb_gen.design = name)
          Mb_gen.table3_scenarios
        |> Option.map Mb_gen.exclusive_variant)
      designs
  in
  let rows = run_movebound_rows ~kind:Fbp_movebound.Movebound.Exclusive scenarios in
  ( render_movebound_table
      ~title:
        "TABLE V: exclusive movebounds — RQL (repro) vs BonnPlace FBP (repro); paper totals: FBP = 67.1% HPWL, 20.9x faster"
      ~paper_pct:paper_pct_t5 rows,
    rows )

(* Table VI: runtime split of the FBP runs of Table IV. *)
let table6 (rows : row_mb list) =
  let t =
    Table.create
      ~title:
        "TABLE VI: BonnPlace FBP (repro) with inclusive movebounds — global placement vs legalization wall time (paper total: 48.8% global)"
      ~header:[ "chip"; "global"; "legalization"; "total"; "global/total" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  let tg = ref 0.0 and tl = ref 0.0 in
  List.iter
    (fun r ->
      let g = r.mfbp.Runner.global_time and l = r.mfbp.Runner.legalize_time in
      tg := !tg +. g;
      tl := !tl +. l;
      Table.add_row t
        [
          r.mname;
          Duration.pretty g;
          Duration.pretty l;
          Duration.pretty (g +. l);
          Printf.sprintf "%.1f%%" (100.0 *. g /. Float.max 1e-6 (g +. l));
        ])
    rows;
  Table.add_sep t;
  Table.add_row t
    [
      "Total"; Duration.pretty !tg; Duration.pretty !tl; Duration.pretty (!tg +. !tl);
      Printf.sprintf "%.1f%%" (100.0 *. !tg /. Float.max 1e-6 (!tg +. !tl));
    ];
  t

(* -------------------------------------------------------------- Table VII *)

let table7 ?(specs = Array.to_list Ispd.specs) () =
  let t =
    Table.create
      ~title:
        "TABLE VII: ISPD-2006-style benchmarks — Kraftwerk2 (repro) vs BonnPlace FBP (repro), contest scoring; paper ratios ~99.4-99.5%"
      ~header:
        [ "chip"; "KW2 H"; "KW2 H+D"; "FBP H"; "FBP D%"; "FBP C%"; "FBP H+D";
          "FBP H+D+C"; "ratio H+D"; "ratio H+D+C"; "paper H" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      ()
  in
  let ratios_hd = ref [] and ratios_hdc = ref [] in
  List.iter
    (fun (s : Ispd.spec) ->
      let d = Ispd.instantiate s in
      let inst = Fbp_movebound.Instance.unconstrained d in
      match (Runner.run_kraftwerk inst, Runner.run_fbp inst) with
      | Ok kw, Ok fbp ->
        (* contest scoring: density penalty from the legal placements; the
           CPU factor is measured against the Kraftwerk2 runtime (the
           reference tool), so KW2 itself has C = 0 *)
        let kw_score =
          Ispd.score d kw.Runner.placement ~time:kw.Runner.total_time
            ~reference_time:kw.Runner.total_time
        in
        let fbp_score =
          Ispd.score d fbp.Runner.placement ~time:fbp.Runner.total_time
            ~reference_time:kw.Runner.total_time
        in
        let ratio_hd = 100.0 *. fbp_score.Ispd.h_d /. kw_score.Ispd.h_d in
        let ratio_hdc = 100.0 *. fbp_score.Ispd.h_d_c /. kw_score.Ispd.h_d_c in
        ratios_hd := ratio_hd :: !ratios_hd;
        ratios_hdc := ratio_hdc :: !ratios_hdc;
        Table.add_row t
          [
            s.Ispd.name;
            fmt_hpwl_k kw_score.Ispd.hpwl;
            fmt_hpwl_k kw_score.Ispd.h_d;
            fmt_hpwl_k fbp_score.Ispd.hpwl;
            Printf.sprintf "%.2f%%" fbp_score.Ispd.dens_pct;
            Printf.sprintf "%.1f%%" fbp_score.Ispd.cpu_pct;
            fmt_hpwl_k fbp_score.Ispd.h_d;
            fmt_hpwl_k fbp_score.Ispd.h_d_c;
            Printf.sprintf "%.1f%%" ratio_hd;
            Printf.sprintf "%.1f%%" ratio_hdc;
            Printf.sprintf "%.1f%%"
              (100.0 *. s.Ispd.paper_fbp_hpwl /. (let a, _, _ = s.Ispd.paper_kw2 in a));
          ]
      | Error e, _ | _, Error e ->
        Printf.eprintf "[tables] %s: %s\n" s.Ispd.name
          (Fbp_resilience.Fbp_error.to_string e))
    specs;
  Table.add_sep t;
  let hd = Array.of_list !ratios_hd and hdc = Array.of_list !ratios_hdc in
  Table.add_row t
    [
      "Average"; ""; ""; ""; ""; ""; ""; "";
      (if Array.length hd > 0 then Printf.sprintf "%.1f%%" (Stats.mean hd) else "-");
      (if Array.length hdc > 0 then Printf.sprintf "%.1f%%" (Stats.mean hdc) else "-");
      "99.4%";
    ];
  t

(* -------------------------------------------------------------- ablations *)

(* The design choices DESIGN.md argues for, each toggled on design [rabe]
   against the default FBP run.  A variant that fails gets an error row
   instead of aborting the table. *)
let ablations () =
  let t =
    Table.create
      ~title:
        "ABLATIONS (design `rabe`, no movebounds unless stated): design choices from DESIGN.md"
      ~header:[ "variant"; "HPWL"; "global time"; "notes" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Left ]
      ()
  in
  let d = Designs.instantiate (Option.get (Designs.find_spec "rabe")) in
  let nl = d.Fbp_netlist.Design.netlist in
  let inst = Fbp_movebound.Instance.unconstrained d in
  let hpwl_k v = Printf.sprintf "%.1fk" (v /. 1e3) in
  let error_row name msg = Table.add_row t [ name; "error: " ^ msg; "-"; "" ] in
  let fbp_error = Fbp_resilience.Fbp_error.to_string in
  let run name config notes =
    match Runner.run_fbp ~config inst with
    | Error e -> Table.add_row t [ name; "error: " ^ fbp_error e; "-"; notes ]
    | Ok m ->
      Table.add_row t
        [ name; hpwl_k m.Runner.hpwl; Duration.pretty m.Runner.global_time; notes ]
  in
  let default = Fbp_core.Config.default in
  run "fbp (default)" default "local QP on, 1 domain";
  run "fbp, no local QP" { default with local_qp = false }
    "realization cost = plain movement penalty";
  run "fbp, 4 domains" { default with domains = 4 }
    "deterministic parallel realization";
  run "fbp, coarse stop" { default with min_window_rows = 10.0 }
    "refinement stops early";
  (* BestChoice clustering (the paper's setup: ratio 5): cluster, place the
     coarse netlist, expand, then refine flat *)
  (let name = "fbp + BestChoice r=5" in
   let t0 = Timer.now () in
   let cl = Fbp_netlist.Clustering.best_choice ~ratio:5.0 nl in
   let coarse_design =
     { d with
       Fbp_netlist.Design.netlist = cl.Fbp_netlist.Clustering.coarse;
       initial =
         Fbp_netlist.Clustering.coarse_placement cl nl d.Fbp_netlist.Design.initial }
   in
   match Fbp_core.Placer.place (Fbp_movebound.Instance.unconstrained coarse_design) with
   | Error e -> error_row name (fbp_error e)
   | Ok coarse_rep ->
     let expanded = Fbp_netlist.Placement.create (Fbp_netlist.Netlist.n_cells nl) in
     Fbp_netlist.Clustering.expand cl coarse_rep.Fbp_core.Placer.placement expanded;
     let flat_design = { d with Fbp_netlist.Design.initial = expanded } in
     (match Runner.run_fbp (Fbp_movebound.Instance.unconstrained flat_design) with
      | Error e -> error_row name (fbp_error e)
      | Ok m ->
        Table.add_row t
          [
            name;
            hpwl_k m.Runner.hpwl;
            Duration.pretty (Timer.now () -. t0);
            Printf.sprintf "%d coarse cells seed the flat pass"
              (Fbp_netlist.Netlist.n_cells cl.Fbp_netlist.Clustering.coarse);
          ]));
  (* Brenner-Vygen-style flow legalizer vs the default Tetris/interval one *)
  (match Fbp_core.Placer.place inst with
   | Error e -> error_row "fbp + flow legalizer [6]" (fbp_error e)
   | Ok rep ->
     let t0 = Timer.now () in
     let pos = Fbp_netlist.Placement.copy rep.Fbp_core.Placer.placement in
     let st = Fbp_legalize.Flow_legalizer.run inst rep.Fbp_core.Placer.regions pos in
     Table.add_row t
       [
         "fbp + flow legalizer [6]";
         hpwl_k (Fbp_netlist.Hpwl.total nl pos);
         Duration.pretty (Timer.now () -. t0);
         Printf.sprintf "avg displacement %.2f rows (Tetris default shown above)"
           st.Fbp_legalize.Flow_legalizer.avg_displacement;
       ]);
  (* recursive-partitioning baseline (global HPWL, pre-legalization) *)
  (match Fbp_baselines.Recursive.place inst with
   | Error e -> error_row "recursive 2x2 (old)" e
   | Ok r ->
     Table.add_row t
       [
         "recursive 2x2 (old)";
         Printf.sprintf "%s (global)" (hpwl_k r.Fbp_baselines.Recursive.hpwl);
         Duration.pretty r.Fbp_baselines.Recursive.global_time;
         Printf.sprintf "%d local capacity overruns (the Section-IV drawback)"
           r.Fbp_baselines.Recursive.overflow_events;
       ]);
  t
