(* Regenerate the paper's figures as SVGs in ./out:

   - fig1_movebounds.svg / fig1_regions.svg — the three movebounds N
     (exclusive), M, L (nested inclusive) and the resulting maximal regions;
   - fig2.svg — the FBP edge families inside one window;
   - fig3.svg — external transit arcs between the windows of a 2x2 grid;
   - fig4_step<k>.svg — realization snapshots (placement + remaining
     flow-carrying external arcs) before and after realization.

     dune exec examples/figures.exe *)

open Fbp_geometry
open Fbp_netlist

let () =
  (try Unix.mkdir "out" 0o755 with _ -> ());
  (* ------------------------------------------------ Figure 1 *)
  let chip = Rect.make ~x0:0.0 ~y0:0.0 ~x1:16.0 ~y1:12.0 in
  let movebounds =
    [|
      Fbp_movebound.Movebound.make ~id:0 ~name:"N" ~kind:Fbp_movebound.Movebound.Exclusive
        [ Rect.make ~x0:1.0 ~y0:7.0 ~x1:5.0 ~y1:11.0 ];
      Fbp_movebound.Movebound.make ~id:1 ~name:"M" ~kind:Fbp_movebound.Movebound.Inclusive
        [ Rect.make ~x0:6.0 ~y0:1.0 ~x1:15.0 ~y1:8.0 ];
      Fbp_movebound.Movebound.make ~id:2 ~name:"L" ~kind:Fbp_movebound.Movebound.Inclusive
        [ Rect.make ~x0:8.0 ~y0:2.5 ~x1:12.0 ~y1:6.0 ];
    |]
  in
  Fbp_viz.Svg.write_file "out/fig1_movebounds.svg"
    (Fbp_viz.Draw.fig1_movebounds chip movebounds);
  let regions = Fbp_movebound.Regions.decompose ~chip movebounds in
  Fbp_viz.Svg.write_file "out/fig1_regions.svg" (Fbp_viz.Draw.fig1_regions chip regions);
  Printf.printf "fig1: %d maximal regions\n" (Fbp_movebound.Regions.n_regions regions);

  (* -------------------------------------------- Figures 2, 3 *)
  let design = Generator.quick ~seed:3 ~name:"figs" 400 in
  let nl = design.Design.netlist in
  (* one small movebound so the model has a non-trivial class *)
  let c = design.Design.chip in
  let m =
    Fbp_movebound.Movebound.make ~id:0 ~name:"M" ~kind:Fbp_movebound.Movebound.Inclusive
      [ Rect.make ~x0:c.Rect.x0 ~y0:c.Rect.y0
          ~x1:(c.Rect.x0 +. (0.5 *. Rect.width c))
          ~y1:(c.Rect.y0 +. (0.5 *. Rect.height c)) ]
  in
  for i = 0 to (Netlist.n_cells nl / 5) - 1 do
    nl.Netlist.movebound.(i * 5) <- 0
  done;
  let inst = { Fbp_movebound.Instance.design; movebounds = [| m |] } in
  let inst = match Fbp_movebound.Instance.normalize inst with Ok i -> i | Error e -> failwith e in
  let regions2 = Fbp_movebound.Regions.decompose ~chip:c [| m |] in
  let density = Fbp_core.Density.create design in
  (* fig 2: a single window *)
  let grid1 = Fbp_core.Grid.create ~chip:c ~nx:1 ~ny:1 ~regions:regions2 ~density () in
  let model1 = Fbp_core.Fbp_model.build inst regions2 grid1 design.Design.initial in
  Fbp_viz.Svg.write_file "out/fig2.svg" (Fbp_viz.Draw.flow_model model1);
  (* fig 3: 2x2 windows with external transit arcs *)
  let grid2 = Fbp_core.Grid.create ~chip:c ~nx:2 ~ny:2 ~regions:regions2 ~density () in
  let model2 = Fbp_core.Fbp_model.build inst regions2 grid2 design.Design.initial in
  Fbp_viz.Svg.write_file "out/fig3.svg" (Fbp_viz.Draw.flow_model model2);
  Printf.printf "fig2: |V|=%d |E|=%d; fig3: |V|=%d |E|=%d\n"
    model1.Fbp_core.Fbp_model.n_nodes model1.Fbp_core.Fbp_model.n_edges
    model2.Fbp_core.Fbp_model.n_nodes model2.Fbp_core.Fbp_model.n_edges;

  (* ------------------------------------------------ Figure 4 *)
  (* realization steps on a 4x4 grid: snapshot before (with the flow's
     external arcs) and after realization *)
  let grid4 = Fbp_core.Grid.create ~chip:c ~nx:4 ~ny:4 ~regions:regions2 ~density () in
  let pos = Placement.copy design.Design.initial in
  let model4 = Fbp_core.Fbp_model.build inst regions2 grid4 pos in
  let sol = Fbp_core.Fbp_model.solve model4 in
  Fbp_viz.Svg.write_file "out/fig4_step1_flow.svg"
    (Fbp_viz.Draw.realization_snapshot inst pos grid4 sol.Fbp_core.Fbp_model.externals);
  let _ = Fbp_core.Realization.realize Fbp_core.Config.default inst regions2 sol pos in
  Fbp_viz.Svg.write_file "out/fig4_step2_realized.svg"
    (Fbp_viz.Draw.realization_snapshot inst pos grid4 []);
  Printf.printf "fig4: %d external arcs realized\n"
    (List.length sol.Fbp_core.Fbp_model.externals);
  print_endline "figures written to out/"
