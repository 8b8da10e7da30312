(* Flat arena-backed four-level page table.

   Same hierarchy, charges and coherency model as the boxed radix
   reference (test/radix.ml, the differential oracle), but all nodes live in one growable packed-int store: node
   [n] owns cells [n*512 .. n*512+511] of the [cpu] and [hw] arrays, and
   a cell is a tagged immediate —

     0                      empty
     (pte  lsl 1) lor 1     leaf holding a packed {!Pte}
     child lsl 1            interior pointer to node [child]

   (node 0 is the root and never a child, so interior encodings are
   nonzero). Steady-state [map_exn]/[unmap_exn]/[walk]
   allocate zero words: no records, no options, constant exceptions;
   store growth happens in a separate helper only when a fresh node is
   carved. Released nodes (only [reset] releases) are threaded through
   an intrusive freelist in their own slot 0, keeping their physical
   frame for reuse.

   The store itself is host memory that models nothing, so it is built
   at the first map, through [grow]: [create] draws the root's frame
   and charges its allocation as before, but a table nothing has mapped
   into holds two empty lanes. A walk or unmap of it charges exactly
   what an empty root's walk does (one reference, then a miss), so a
   tenant that never maps costs no store. *)

module Addr = Rio_memory.Addr
module Coherency = Rio_memory.Coherency
module Frame_allocator = Rio_memory.Frame_allocator
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

let levels = 4
let iova_bits = 48
let fanout = 512

exception Already_mapped
exception Not_mapped = Rio_iommu.Fault.Not_mapped

type t = {
  frames : Frame_allocator.t;
  coherency : Coherency.t;
  clock : Cycles.t;
  cost : Cost_model.t;
  mutable cpu : int array; (* capacity*fanout cells, CPU view; [||] until
                              the first map *)
  mutable hw : int array; (* walker view *)
  mutable high_water : int; (* store slots ever carved *)
  mutable free : int; (* freelist head + 1, 0 = empty *)
  mutable mapped : int;
  mutable nodes : int; (* live nodes, including the root *)
}

(* One node per level: the first map of a fresh table fills exactly
   this, and [grow] doubles it from there. *)
let initial_nodes = levels

let create ~frames ~coherency ~clock ~cost =
  let t =
    {
      frames;
      coherency;
      clock;
      cost;
      cpu = [||];
      hw = [||];
      high_water = 0;
      free = 0;
      mapped = 0;
      nodes = 0;
    }
  in
  (* the root is node 0; exactly one node allocation is charged, through
     the same Cost_model entry point as the radix reference *)
  (* each node takes a backing frame; nothing reads its address
     ([sync_cell] only charges), but later frame numbers depend on it *)
  ignore (Frame_allocator.alloc_exn frames : Addr.phys);
  Cost_model.charge_node_alloc cost clock;
  t.high_water <- 1;
  t.nodes <- 1;
  t

(* Build the store ([initial_nodes] nodes) or double it. *)
let grow t =
  let cells = Array.length t.cpu in
  let size = if cells = 0 then initial_nodes * fanout else 2 * cells in
  let cpu = Array.make size 0 in
  let hw = Array.make size 0 in
  Array.blit t.cpu 0 cpu 0 cells;
  Array.blit t.hw 0 hw 0 cells;
  t.cpu <- cpu;
  t.hw <- hw

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
      (* draw the frame first: an exhausted pool leaves the store as
         it was *)
      ignore (Frame_allocator.alloc_exn t.frames : Addr.phys);
      if t.high_water * fanout = Array.length t.cpu then grow t;
      let n = t.high_water in
      t.high_water <- n + 1;
      n
    end
  in
  Cost_model.charge_node_alloc t.cost t.clock;
  t.nodes <- t.nodes + 1;
  n

(* CPU-side store to a cell: update the CPU view; on a coherent system
   the walker sees it immediately, otherwise only at [sync_cell]. *)
let cell_write t node idx v =
  t.cpu.((node * fanout) + idx) <- v;
  if Coherency.is_coherent t.coherency then t.hw.((node * fanout) + idx) <- v

(* Publish a cell to the walker: barrier + flush (+ barrier) per Fig. 11. *)
let sync_cell t node idx =
  Coherency.sync_mem t.coherency;
  t.hw.((node * fanout) + idx) <- t.cpu.((node * fanout) + idx)

let check_iova iova =
  if iova < 0 || iova lsr iova_bits <> 0 then invalid_arg "Arena: iova range"

let[@inline] index iova level =
  (* level 1 uses bits 39..47, level 4 uses bits 12..20 *)
  (iova lsr (12 + (9 * (levels - level)))) land (fanout - 1)

let charge_cpu_ref t = Cycles.charge t.clock t.cost.Cost_model.mem_ref_uncached

let map_exn t ~iova ~pte =
  check_iova iova;
  if pte < 0 then invalid_arg "Arena.map: negative packed pte";
  if Array.length t.cpu = 0 then grow t;
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
  if Array.length t.cpu = 0 then begin
    (* no store yet: the empty root's one reference, then the miss *)
    charge_cpu_ref t;
    raise Not_mapped
  end;
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

let walk t ~iova =
  check_iova iova;
  if Array.length t.hw = 0 then begin
    (* no store yet: the empty root's one reference, then the miss *)
    Cycles.charge t.clock t.cost.Cost_model.io_walk_ref;
    Pte.packed_none
  end
  else begin
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
  end

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
