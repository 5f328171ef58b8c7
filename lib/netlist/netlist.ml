(* Circuits: rectangular cells connected by multi-pin nets.

   Cell attributes are struct-of-arrays: placement algorithms sweep over
   many cells and the hot loops (HPWL, QP system assembly, partitioning)
   only touch a couple of attributes at a time.  Nets are not: a net is an
   array of pin records, and since a pin record mixes an int with two
   floats, each of its offsets is a separately boxed float (a pin costs a
   4-word record, two 2-word floats and its array slot).

   A pin either belongs to a cell (offset from the cell's center) or is a
   fixed pad at absolute chip coordinates ([cell = -1]).  Fixed cells
   (macros, pre-placed blocks) keep their initial position through placement
   and act as blockages via the density map. *)

type pin = {
  cell : int;  (* -1 for a fixed pad; otherwise a cell index *)
  dx : float;  (* offset from cell center, or absolute x for pads *)
  dy : float;
}

type net = {
  pins : pin array;
  weight : float;
}

type t = {
  n_cells : int;
  names : string array;
  widths : float array;
  heights : float array;
  fixed : bool array;
  movebound : int array;  (* movebound id, -1 = unconstrained *)
  nets : net array;
}

let n_cells t = t.n_cells
let n_nets t = Array.length t.nets

let size t c = t.widths.(c) *. t.heights.(c)

let total_movable_area t =
  let acc = ref 0.0 in
  for c = 0 to t.n_cells - 1 do
    if not t.fixed.(c) then acc := !acc +. size t c
  done;
  !acc

let n_pins t =
  Array.fold_left (fun acc n -> acc + Array.length n.pins) 0 t.nets

let validate t =
  let n = t.n_cells in
  if Array.length t.names <> n || Array.length t.widths <> n
     || Array.length t.heights <> n || Array.length t.fixed <> n
     || Array.length t.movebound <> n
  then Error "attribute arrays disagree with n_cells"
  else begin
    let bad = ref None in
    Array.iteri
      (fun i (net : net) ->
        if Array.length net.pins < 1 then bad := Some (Printf.sprintf "net %d has no pins" i);
        Array.iter
          (fun p ->
            if p.cell < -1 || p.cell >= n then
              bad := Some (Printf.sprintf "net %d has pin on bad cell %d" i p.cell))
          net.pins;
        if net.weight <= 0.0 then bad := Some (Printf.sprintf "net %d has weight <= 0" i))
      t.nets;
    Array.iteri
      (fun c w ->
        if w <= 0.0 || t.heights.(c) <= 0.0 then
          bad := Some (Printf.sprintf "cell %d has non-positive size" c))
      t.widths;
    match !bad with None -> Ok () | Some m -> Error m
  end

(* Per-cell incident nets, computed once and cached by callers that need it
   (QP assembly, local realization). *)
let cell_nets t =
  let out = Array.make t.n_cells [] in
  Array.iteri
    (fun i (net : net) ->
      Array.iter (fun p -> if p.cell >= 0 then out.(p.cell) <- i :: out.(p.cell)) net.pins)
    t.nets;
  out
