(* Figure renderers: the paper's Figures 1-4 and general placement plots. *)

open Fbp_geometry
open Fbp_netlist

(* Placement plot: cells colored by movebound class, blockages gray. *)
let placement (inst : Fbp_movebound.Instance.t) (pos : Placement.t) =
  let d = inst.Fbp_movebound.Instance.design in
  let chip = d.Design.chip in
  let svg = Svg.create ~width:(Rect.width chip) ~height:(Rect.height chip) in
  Svg.rect svg chip ~fill:"#fafafa" ~stroke:"#333" ~stroke_width:0.3 ();
  List.iter (fun b -> Svg.rect svg b ~fill:"#999" ~opacity:0.8 ()) d.Design.blockages;
  (* movebound outlines *)
  Array.iter
    (fun (m : Fbp_movebound.Movebound.t) ->
      List.iter
        (fun r ->
          Svg.rect svg r
            ~fill:(Svg.color m.Fbp_movebound.Movebound.id)
            ~stroke:(Svg.color m.Fbp_movebound.Movebound.id) ~stroke_width:0.5
            ~opacity:0.12 ())
        (Rect_set.rects m.Fbp_movebound.Movebound.area))
    inst.Fbp_movebound.Instance.movebounds;
  let nl = d.Design.netlist in
  for c = 0 to Netlist.n_cells nl - 1 do
    if not nl.Netlist.fixed.(c) then begin
      let r = Placement.cell_rect nl pos c in
      let mb = nl.Netlist.movebound.(c) in
      let fill = if mb < 0 then "#555" else Svg.color mb in
      Svg.rect svg r ~fill ~opacity:0.85 ()
    end
  done;
  svg

(* Figure 1: movebound areas (left) and the resulting maximal regions
   (right), rendered as two files. *)
let fig1_movebounds (chip : Rect.t) (movebounds : Fbp_movebound.Movebound.t array) =
  let svg = Svg.create ~width:(Rect.width chip) ~height:(Rect.height chip) in
  Svg.rect svg chip ~fill:"#ffffff" ~stroke:"#333" ~stroke_width:0.08 ();
  Array.iter
    (fun (m : Fbp_movebound.Movebound.t) ->
      List.iter
        (fun r ->
          Svg.rect svg r
            ~fill:(Svg.color m.Fbp_movebound.Movebound.id)
            ~stroke:(Svg.color m.Fbp_movebound.Movebound.id) ~stroke_width:0.1
            ~opacity:0.35 ();
          let c = Rect.center r in
          Svg.text svg ~x:(c.Point.x -. 0.2) ~y:c.Point.y ~size:0.6
            m.Fbp_movebound.Movebound.name)
        (Rect_set.rects m.Fbp_movebound.Movebound.area))
    movebounds;
  svg

let fig1_regions (chip : Rect.t) (regions : Fbp_movebound.Regions.t) =
  let svg = Svg.create ~width:(Rect.width chip) ~height:(Rect.height chip) in
  Svg.rect svg chip ~fill:"#ffffff" ~stroke:"#333" ~stroke_width:0.08 ();
  Array.iter
    (fun (r : Fbp_movebound.Regions.region) ->
      List.iter
        (fun piece ->
          Svg.rect svg piece
            ~fill:(Svg.color r.Fbp_movebound.Regions.id)
            ~opacity:0.4 ())
        (Rect_set.rects r.Fbp_movebound.Regions.area);
      let bb = Rect_set.bbox r.Fbp_movebound.Regions.area in
      let c = Rect.center bb in
      Svg.text svg ~x:c.Point.x ~y:c.Point.y ~size:0.5
        (Printf.sprintf "r%d" r.Fbp_movebound.Regions.id))
    regions.Fbp_movebound.Regions.regions;
  svg

(* Figures 2/3: the flow model's nodes and edge families.  Cell-group nodes
   as filled circles at their center of gravity, transit nodes as hollow
   squares on window boundaries, region nodes as diamonds at the free-area
   centroid; arcs drawn per family. *)
let flow_model (model : Fbp_core.Fbp_model.t) =
  let grid = model.Fbp_core.Fbp_model.grid in
  let chip = grid.Fbp_core.Grid.chip in
  let svg = Svg.create ~width:(Rect.width chip) ~height:(Rect.height chip) in
  Svg.rect svg chip ~fill:"#ffffff" ~stroke:"#333" ~stroke_width:0.08 ();
  Array.iter
    (fun (w : Fbp_core.Grid.window) ->
      Svg.rect svg w.Fbp_core.Grid.rect ~fill:"none" ~stroke:"#888" ~stroke_width:0.06 ())
    grid.Fbp_core.Grid.windows;
  (* arcs: draw per kind with distinct colors *)
  let node_pos = Hashtbl.create 64 in
  Array.iteri
    (fun gi (g : Fbp_core.Fbp_model.group) ->
      Hashtbl.replace node_pos (`G gi) g.Fbp_core.Fbp_model.cog)
    model.Fbp_core.Fbp_model.groups;
  Array.iter
    (fun (p : Fbp_core.Grid.piece) ->
      Hashtbl.replace node_pos (`P p.Fbp_core.Grid.id) p.Fbp_core.Grid.centroid)
    grid.Fbp_core.Grid.pieces;
  let transit w dir = Fbp_core.Grid.boundary_point grid w dir in
  Fbp_flow.Graph.iter_edges model.Fbp_core.Fbp_model.graph (fun a ->
      match Fbp_core.Fbp_model.arc_kind model a with
      | Fbp_core.Fbp_model.Cell_to_piece { group; piece } ->
        let a = Hashtbl.find node_pos (`G group) and b = Hashtbl.find node_pos (`P piece) in
        Svg.line svg ~x1:a.Point.x ~y1:a.Point.y ~x2:b.Point.x ~y2:b.Point.y
          ~stroke:"#4e79a7" ~stroke_width:0.06 ~opacity:0.7 ()
      | Fbp_core.Fbp_model.Cell_to_transit { group; dir } ->
        let a = Hashtbl.find node_pos (`G group) in
        let g = model.Fbp_core.Fbp_model.groups.(group) in
        let b = transit g.Fbp_core.Fbp_model.w dir in
        Svg.line svg ~x1:a.Point.x ~y1:a.Point.y ~x2:b.Point.x ~y2:b.Point.y
          ~stroke:"#59a14f" ~stroke_width:0.05 ~opacity:0.5 ()
      | Fbp_core.Fbp_model.Transit_to_transit { w; from_dir; to_dir; _ } ->
        let a = transit w from_dir and b = transit w to_dir in
        Svg.line svg ~x1:a.Point.x ~y1:a.Point.y ~x2:b.Point.x ~y2:b.Point.y
          ~stroke:"#bab0ac" ~stroke_width:0.04 ~opacity:0.4 ()
      | Fbp_core.Fbp_model.Transit_to_piece { w; dir; piece; _ } ->
        let a = transit w dir and b = Hashtbl.find node_pos (`P piece) in
        Svg.line svg ~x1:a.Point.x ~y1:a.Point.y ~x2:b.Point.x ~y2:b.Point.y
          ~stroke:"#edc948" ~stroke_width:0.05 ~opacity:0.5 ()
      | Fbp_core.Fbp_model.External { from_w; to_w; from_dir; _ } ->
        let a = transit from_w from_dir in
        let b = transit to_w (Fbp_core.Grid.opposite_dir from_dir) in
        Svg.arrow svg ~x1:a.Point.x ~y1:a.Point.y ~x2:b.Point.x ~y2:b.Point.y
          ~stroke:"#e15759" ~stroke_width:0.08 ());
  (* nodes on top *)
  Array.iter
    (fun (g : Fbp_core.Fbp_model.group) ->
      Svg.circle svg ~cx:g.Fbp_core.Fbp_model.cog.Point.x
        ~cy:g.Fbp_core.Fbp_model.cog.Point.y ~r:0.35 ~fill:"#4e79a7" ())
    model.Fbp_core.Fbp_model.groups;
  Array.iter
    (fun (p : Fbp_core.Grid.piece) ->
      Svg.circle svg ~cx:p.Fbp_core.Grid.centroid.Point.x
        ~cy:p.Fbp_core.Grid.centroid.Point.y ~r:0.3 ~fill:"#e15759" ())
    grid.Fbp_core.Grid.pieces;
  svg

(* Figure 4-style realization snapshot: the placement plus the flow-carrying
   external arcs remaining at a step. *)
let realization_snapshot (inst : Fbp_movebound.Instance.t) (pos : Placement.t)
    (grid : Fbp_core.Grid.t) (externals : Fbp_core.Fbp_model.external_flow list) =
  let svg = placement inst pos in
  Array.iter
    (fun (w : Fbp_core.Grid.window) ->
      Svg.rect svg w.Fbp_core.Grid.rect ~fill:"none" ~stroke:"#777" ~stroke_width:0.15 ())
    grid.Fbp_core.Grid.windows;
  List.iter
    (fun (e : Fbp_core.Fbp_model.external_flow) ->
      let a = Fbp_core.Grid.boundary_point grid e.Fbp_core.Fbp_model.from_w
          e.Fbp_core.Fbp_model.from_dir in
      let b =
        Rect.center grid.Fbp_core.Grid.windows.(e.Fbp_core.Fbp_model.to_w).Fbp_core.Grid.rect
      in
      Svg.arrow svg ~x1:a.Point.x ~y1:a.Point.y ~x2:b.Point.x ~y2:b.Point.y
        ~stroke:"#d62728" ~stroke_width:0.5 ())
    externals;
  svg
