(* Flat arena-backed four-level page table.

   Same hierarchy, charges and coherency model as the boxed radix
   reference (test/radix.ml, the differential oracle), but all nodes live in one growable packed-int store: node
   [n] owns cells [n*512 .. n*512+511] of the [cpu] and [hw] arrays, and
   a cell is a tagged immediate —

     0                      empty
     (pte  lsl 1) lor 1     leaf holding a packed {!Pte}
     child lsl 1            interior pointer to node [child]

   (node 0 is the root and never a child, so interior encodings are
   nonzero). Steady-state [map_exn]/[unmap_exn]/[lookup_cpu]/[walk]
   allocate zero words: no records, no options, constant exceptions;
   store growth happens in a separate helper only when a fresh node is
   carved. Released nodes (only [reset] releases) are threaded through
   an intrusive freelist in their own slot 0, keeping their physical
   frame for reuse. *)

module Addr = Rio_memory.Addr
module Coherency = Rio_memory.Coherency
module Frame_allocator = Rio_memory.Frame_allocator
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

let levels = 4
let iova_bits = 48
let fanout = 512

exception Already_mapped
exception Not_mapped

type t = {
  frames : Frame_allocator.t;
  coherency : Coherency.t;
  clock : Cycles.t;
  cost : Cost_model.t;
  mutable cpu : int array; (* capacity*fanout cells, CPU view *)
  mutable hw : int array; (* walker view *)
  mutable node_frame : Addr.phys array; (* node -> backing frame *)
  mutable high_water : int; (* store slots ever carved *)
  mutable free : int; (* freelist head + 1, 0 = empty *)
  mutable mapped : int;
  mutable nodes : int; (* live nodes, including the root *)
}

let initial_nodes = 8

let create ~frames ~coherency ~clock ~cost =
  let cap = initial_nodes in
  let t =
    {
      frames;
      coherency;
      clock;
      cost;
      cpu = Array.make (cap * fanout) 0;
      hw = Array.make (cap * fanout) 0;
      node_frame = Array.make cap (Addr.of_pfn 0);
      high_water = 0;
      free = 0;
      mapped = 0;
      nodes = 0;
    }
  in
  (* the root is node 0; exactly one node allocation is charged, through
     the same Cost_model entry point as the radix reference *)
  t.node_frame.(0) <- Frame_allocator.alloc_exn frames;
  Cost_model.charge_node_alloc cost clock;
  t.high_water <- 1;
  t.nodes <- 1;
  t

let grow t =
  let cap = Array.length t.node_frame in
  let ncap = 2 * cap in
  let cpu = Array.make (ncap * fanout) 0 in
  let hw = Array.make (ncap * fanout) 0 in
  let node_frame = Array.make ncap (Addr.of_pfn 0) in
  Array.blit t.cpu 0 cpu 0 (cap * fanout);
  Array.blit t.hw 0 hw 0 (cap * fanout);
  Array.blit t.node_frame 0 node_frame 0 cap;
  t.cpu <- cpu;
  t.hw <- hw;
  t.node_frame <- node_frame

(* Carve a node from the freelist (frame retained from its previous
   life) or from fresh store. Either way it is one node allocation:
   charged through Cost_model.charge_node_alloc, cells all empty. *)
let new_node t =
  let n =
    if t.free <> 0 then begin
      let n = t.free - 1 in
      t.free <- t.cpu.(n * fanout);
      t.cpu.(n * fanout) <- 0;
      n
    end
    else begin
      if t.high_water = Array.length t.node_frame then grow t;
      let n = t.high_water in
      t.high_water <- n + 1;
      t.node_frame.(n) <- Frame_allocator.alloc_exn t.frames;
      n
    end
  in
  Cost_model.charge_node_alloc t.cost t.clock;
  t.nodes <- t.nodes + 1;
  n

let cell_addr t node idx = Addr.add t.node_frame.(node) (idx * 8)

(* CPU-side store to a cell: update the CPU view, mark the line dirty;
   on a coherent system the walker sees it immediately. *)
let cell_write t node idx v =
  t.cpu.((node * fanout) + idx) <- v;
  Coherency.cpu_write t.coherency (cell_addr t node idx);
  if Coherency.is_coherent t.coherency then t.hw.((node * fanout) + idx) <- v

(* Publish a cell to the walker: barrier + flush (+ barrier) per Fig. 11. *)
let sync_cell t node idx =
  Coherency.sync_mem t.coherency (cell_addr t node idx);
  t.hw.((node * fanout) + idx) <- t.cpu.((node * fanout) + idx)

let check_iova iova =
  if iova < 0 || iova lsr iova_bits <> 0 then invalid_arg "Arena: iova range"

let index iova level =
  (* level 1 uses bits 39..47, level 4 uses bits 12..20 *)
  (iova lsr (12 + (9 * (levels - level)))) land (fanout - 1)

let charge_cpu_ref t = Cycles.charge t.clock t.cost.Cost_model.mem_ref_uncached

let map_exn t ~iova ~pte =
  check_iova iova;
  if pte < 0 then invalid_arg "Arena.map: negative packed pte";
  let n = ref 0 in
  for level = 1 to levels - 1 do
    charge_cpu_ref t;
    let idx = index iova level in
    let v = t.cpu.((!n * fanout) + idx) in
    if v = 0 then begin
      let child = new_node t in
      (* [new_node] may swap the store arrays: write via the fresh ones *)
      cell_write t !n idx (child lsl 1);
      sync_cell t !n idx;
      n := child
    end
    else if v land 1 = 0 then n := v lsr 1
    else invalid_arg "Arena.map: leaf at interior level"
  done;
  charge_cpu_ref t;
  let idx = index iova levels in
  let v = t.cpu.((!n * fanout) + idx) in
  if v = 0 then begin
    cell_write t !n idx ((pte lsl 1) lor 1);
    sync_cell t !n idx;
    t.mapped <- t.mapped + 1
  end
  else if v land 1 = 1 then raise Already_mapped
  else invalid_arg "Arena.map: table at leaf level"

let unmap_exn t ~iova =
  check_iova iova;
  let n = ref 0 in
  let level = ref 1 in
  let dead = ref false in
  (* mirror the radix oracle: one cpu ref per level actually visited, including the
     level at which a missing interior entry stops the descent *)
  while (not !dead) && !level < levels do
    charge_cpu_ref t;
    let v = t.cpu.((!n * fanout) + index iova !level) in
    if v <> 0 && v land 1 = 0 then begin
      n := v lsr 1;
      incr level
    end
    else dead := true
  done;
  if !dead then raise Not_mapped;
  charge_cpu_ref t;
  let idx = index iova levels in
  let v = t.cpu.((!n * fanout) + idx) in
  if v land 1 = 1 then begin
    cell_write t !n idx 0;
    sync_cell t !n idx;
    t.mapped <- t.mapped - 1;
    v lsr 1
  end
  else raise Not_mapped

let map t ~iova ~pte =
  match map_exn t ~iova ~pte with
  | () -> Ok ()
  | exception Already_mapped -> Error `Already_mapped

let unmap t ~iova =
  match unmap_exn t ~iova with
  | pte -> Ok pte
  | exception Not_mapped -> Error `Not_mapped

let lookup_cpu t ~iova =
  check_iova iova;
  let n = ref 0 in
  let res = ref (-2) in
  for level = 1 to levels do
    if !res = -2 then begin
      let v = t.cpu.((!n * fanout) + index iova level) in
      if level = levels then res := (if v land 1 = 1 then v lsr 1 else -1)
      else if v <> 0 && v land 1 = 0 then n := v lsr 1
      else res := -1
    end
  done;
  if !res >= 0 then !res else Pte.packed_none

let walk t ~iova =
  check_iova iova;
  let n = ref 0 in
  let res = ref (-2) in
  for level = 1 to levels do
    if !res = -2 then begin
      Cycles.charge t.clock t.cost.Cost_model.io_walk_ref;
      let v = t.hw.((!n * fanout) + index iova level) in
      if level = levels then res := (if v land 1 = 1 then v lsr 1 else -1)
      else if v <> 0 && v land 1 = 0 then n := v lsr 1
      else res := -1
    end
  done;
  if !res >= 0 then !res else Pte.packed_none

(* Bulk teardown: clear every cell and thread every non-root node onto
   the freelist (frames retained). A maintenance path, not a modeled OS
   operation: no cycles are charged and no coherency traffic is issued
   (both views are cleared together). *)
let reset t =
  Array.fill t.cpu 0 (Array.length t.cpu) 0;
  Array.fill t.hw 0 (Array.length t.hw) 0;
  t.free <- 0;
  for n = t.high_water - 1 downto 1 do
    t.cpu.(n * fanout) <- t.free;
    t.free <- n + 1
  done;
  t.mapped <- 0;
  t.nodes <- 1

let mapped_count t = t.mapped
let node_count t = t.nodes
let store_nodes t = t.high_water
