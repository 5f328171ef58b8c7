(* Circuits: rectangular cells connected by multi-pin nets.

   Everything is struct-of-arrays: placement algorithms sweep over many
   cells and pins, and the hot loops (HPWL, QP system assembly, the local
   QPs of realization) only touch a couple of attributes at a time.  Net
   [i]'s pins are the slots [net_start.(i) .. net_start.(i + 1) - 1] of
   the pin arrays, in net order; a pin's offsets sit unboxed in float
   arrays, so a pin costs three words.  The cell->net incidence is the
   transpose of [pin_cell], laid out the same way: cell [c]'s nets are
   [cell_net.(cell_net_start.(c)) ..], one entry per pin of the cell, in
   ascending net order.

   A pin either belongs to a cell (offset from the cell's center) or is a
   fixed pad at absolute chip coordinates ([pin_cell = -1]).  Fixed cells
   (macros, pre-placed blocks) keep their initial position through placement
   and act as blockages via the density map. *)

type t = {
  n_cells : int;
  names : string array;
  widths : float array;
  heights : float array;
  fixed : bool array;
  movebound : int array;  (* movebound id, -1 = unconstrained *)
  net_start : int array;
  net_weight : float array;
  pin_cell : int array;  (* -1 for a fixed pad *)
  pin_dx : float array;  (* offset from the cell center, or absolute for pads *)
  pin_dy : float array;
  cell_net_start : int array;
  cell_net : int array;
}

(* The incidence by a counting sort over the pins: visiting nets in order
   keeps each cell's net ids ascending. *)
let incidence ~n_cells ~net_start ~pin_cell =
  let start = Array.make (n_cells + 1) 0 in
  Array.iter (fun c -> if c >= 0 then start.(c + 1) <- start.(c + 1) + 1) pin_cell;
  for c = 1 to n_cells do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let ids = Array.make start.(n_cells) 0 in
  let cursor = Array.sub start 0 n_cells in
  for i = 0 to Array.length net_start - 2 do
    for k = net_start.(i) to net_start.(i + 1) - 1 do
      let c = pin_cell.(k) in
      if c >= 0 then begin
        ids.(cursor.(c)) <- i;
        cursor.(c) <- cursor.(c) + 1
      end
    done
  done;
  (start, ids)

let make ~names ~widths ~heights ~fixed ~movebound ~net_start ~net_weight
    ~pin_cell ~pin_dx ~pin_dy =
  let n = Array.length widths and n_pins = Array.length pin_cell in
  let n_nets = Array.length net_weight in
  if Array.length names <> n || Array.length heights <> n
     || Array.length fixed <> n || Array.length movebound <> n
  then invalid_arg "Netlist.make: attribute arrays differ in length";
  if Array.length pin_dx <> n_pins || Array.length pin_dy <> n_pins then
    invalid_arg "Netlist.make: pin arrays differ in length";
  if Array.length net_start <> n_nets + 1 || net_start.(0) <> 0
     || net_start.(n_nets) <> n_pins
  then invalid_arg "Netlist.make: net_start does not span the pins";
  for i = 0 to n_nets - 1 do
    if net_start.(i) > net_start.(i + 1) then
      invalid_arg "Netlist.make: net_start decreases"
  done;
  Array.iter
    (fun c ->
      if c < -1 || c >= n then
        invalid_arg (Printf.sprintf "Netlist.make: pin on bad cell %d" c))
    pin_cell;
  let cell_net_start, cell_net = incidence ~n_cells:n ~net_start ~pin_cell in
  { n_cells = n; names; widths; heights; fixed; movebound; net_start;
    net_weight; pin_cell; pin_dx; pin_dy; cell_net_start; cell_net }

let n_cells t = t.n_cells
let n_nets t = Array.length t.net_weight
let n_pins t = Array.length t.pin_cell
let degree t i = t.net_start.(i + 1) - t.net_start.(i)

let size t c = t.widths.(c) *. t.heights.(c)

let total_movable_area t =
  let acc = ref 0.0 in
  for c = 0 to t.n_cells - 1 do
    if not t.fixed.(c) then acc := !acc +. size t c
  done;
  !acc

(* The shape (lengths, offsets, pin targets) is [make]'s to check. *)
let validate t =
  let bad = ref None in
  for i = 0 to n_nets t - 1 do
    if degree t i < 1 then bad := Some (Printf.sprintf "net %d has no pins" i);
    if t.net_weight.(i) <= 0.0 then
      bad := Some (Printf.sprintf "net %d has weight <= 0" i)
  done;
  Array.iteri
    (fun c w ->
      if w <= 0.0 || t.heights.(c) <= 0.0 then
        bad := Some (Printf.sprintf "cell %d has non-positive size" c))
    t.widths;
  match !bad with None -> Ok () | Some m -> Error m
