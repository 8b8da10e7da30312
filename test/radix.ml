module Addr = Rio_memory.Addr
module Coherency = Rio_memory.Coherency
module Frame_allocator = Rio_memory.Frame_allocator
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

let levels = 4
let iova_bits = 48
let fanout = 512

type pte = { pfn : int; read : bool; write : bool }
type slot = Empty | Table of node | Leaf of pte

and cell = { mutable cpu : slot; mutable hw : slot }

and node = { cells : cell array }

type t = {
  frames : Frame_allocator.t;
  coherency : Coherency.t;
  clock : Cycles.t;
  cost : Cost_model.t;
  root : node;
  mutable mapped : int;
  mutable nodes : int;
}

(* Allocate and charge one page-table node against the given clock; the
   record-level [make_node] below also bumps the per-table node count. *)
let alloc_node ~frames ~clock ~cost =
  ignore (Frame_allocator.alloc_exn frames : Addr.phys);
  Cost_model.charge_node_alloc cost clock;
  { cells = Array.init fanout (fun _ -> { cpu = Empty; hw = Empty }) }

let make_node t =
  t.nodes <- t.nodes + 1;
  alloc_node ~frames:t.frames ~clock:t.clock ~cost:t.cost

let create ~frames ~coherency ~clock ~cost =
  (* The root is built before the record so exactly one node allocation
     is charged, with no placeholder record to rebuild. *)
  let root = alloc_node ~frames ~clock ~cost in
  { frames; coherency; clock; cost; root; mapped = 0; nodes = 1 }

(* CPU-side write to a slot: update the CPU view; on a coherent system
   the walker sees it immediately, otherwise only at [sync]. *)
let cpu_write t cell slot =
  cell.cpu <- slot;
  if Coherency.is_coherent t.coherency then cell.hw <- slot

(* Publish a slot to the walker: barrier + flush (+ barrier) per Fig. 11. *)
let sync t cell =
  Coherency.sync_mem t.coherency;
  cell.hw <- cell.cpu

let check_iova iova =
  if iova < 0 || iova lsr iova_bits <> 0 then invalid_arg "Radix: iova range"

let index iova level =
  (* level 1 uses bits 39..47, level 4 uses bits 12..20 *)
  (iova lsr (12 + (9 * (levels - level)))) land (fanout - 1)

let charge_cpu_ref t = Cycles.charge t.clock t.cost.Cost_model.mem_ref_uncached

let map t ~iova pte =
  check_iova iova;
  let rec descend node level =
    charge_cpu_ref t;
    let cell = node.cells.(index iova level) in
    if level = levels then
      match cell.cpu with
      | Leaf _ -> Error `Already_mapped
      | Table _ -> invalid_arg "Radix.map: table at leaf level"
      | Empty ->
          cpu_write t cell (Leaf pte);
          sync t cell;
          t.mapped <- t.mapped + 1;
          Ok ()
    else begin
      match cell.cpu with
      | Table child -> descend child (level + 1)
      | Leaf _ -> invalid_arg "Radix.map: leaf at interior level"
      | Empty ->
          let child = make_node t in
          cpu_write t cell (Table child);
          sync t cell;
          descend child (level + 1)
    end
  in
  descend t.root 1

let unmap t ~iova =
  check_iova iova;
  let rec descend node level =
    charge_cpu_ref t;
    let cell = node.cells.(index iova level) in
    if level = levels then
      match cell.cpu with
      | Leaf pte ->
          cpu_write t cell Empty;
          sync t cell;
          t.mapped <- t.mapped - 1;
          Ok pte
      | Table _ | Empty -> Error `Not_mapped
    else begin
      match cell.cpu with
      | Table child -> descend child (level + 1)
      | Leaf _ | Empty -> Error `Not_mapped
    end
  in
  descend t.root 1

let lookup_cpu t ~iova =
  check_iova iova;
  let rec descend node level =
    let cell = node.cells.(index iova level) in
    if level = levels then
      match cell.cpu with Leaf pte -> Some pte | Table _ | Empty -> None
    else begin
      match cell.cpu with
      | Table child -> descend child (level + 1)
      | Leaf _ | Empty -> None
    end
  in
  descend t.root 1

let walk t ~iova =
  check_iova iova;
  let rec descend node level =
    Cycles.charge t.clock t.cost.Cost_model.io_walk_ref;
    let cell = node.cells.(index iova level) in
    if level = levels then
      match cell.hw with Leaf pte -> Some pte | Table _ | Empty -> None
    else begin
      match cell.hw with
      | Table child -> descend child (level + 1)
      | Leaf _ | Empty -> None
    end
  in
  descend t.root 1

let mapped_count t = t.mapped
let node_count t = t.nodes
