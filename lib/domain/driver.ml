module Addr = Rio_memory.Addr
module Frame_allocator = Rio_memory.Frame_allocator
module Pte = Rio_pagetable.Pte
module Arena = Rio_pagetable.Arena
module Iotlb = Rio_iotlb.Iotlb
module Allocator = Rio_iova.Allocator
module Magazine = Rio_iova.Magazine
module Rbtree = Rio_iova.Rbtree
module Breakdown = Rio_sim.Breakdown
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

type policy = Immediate | Deferred of { batch : int }

exception Exhausted
exception Not_mapped = Rio_iommu.Fault.Not_mapped
exception Translation_fault = Rio_iommu.Fault.Translation_fault

type fault = No_translation | Not_permitted

let pp_fault fmt = function
  | No_translation -> Format.pp_print_string fmt "no translation"
  | Not_permitted -> Format.pp_print_string fmt "direction not permitted"

type t = {
  table : Arena.t;
  allocator : Allocator.t;
  rcache : Magazine.t option;  (* magazine cache in front of the allocator *)
  target : target;
  rid : int;
  policy : policy;
  clock : Cycles.t;
  cost : Cost_model.t;
  queue : Rbtree.node Queue.t;
  bm : Breakdown.t;  (* map breakdown *)
  bu : Breakdown.t;  (* unmap breakdown *)
  mutable faults : int;
  (* class of the last fault [translate_exn] raised, for [last_fault] *)
  mutable fault_class : fault;
}

and target =
  | Own of Iotlb.t  (* payloads: packed PTEs *)
  | Domain of Shared_iotlb.t * int
  | Global of group * int

and group = { shared : Shared_iotlb.t; mutable members : t list (* newest first *) }

type sg_flush = Per_iova | Once

let group shared = { shared; members = [] }

let create ?rcache ~table ~allocator ~target ~rid ~policy ~clock ~cost () =
  let t =
    {
      table;
      allocator;
      rcache;
      target;
      rid;
      policy;
      clock;
      cost;
      queue = Queue.create ();
      bm = Breakdown.create ();
      bu = Breakdown.create ();
      faults = 0;
      fault_class = No_translation;
    }
  in
  (match target with Global (g, _) -> g.members <- t :: g.members | _ -> ());
  t

let leave t =
  match t.target with
  | Global (g, _) -> g.members <- List.filter (fun m -> m != t) g.members
  | Own _ | Domain _ -> ()

let iova_alloc_pfn t ~size =
  match t.rcache with
  | Some m -> Magazine.alloc_pfn m ~size
  | None -> Allocator.alloc_pfn t.allocator ~size

let iova_find_exn t ~pfn =
  match t.rcache with
  | Some m -> Magazine.find_exn m ~pfn
  | None -> Allocator.find_exn t.allocator ~pfn

let iova_free t node =
  match t.rcache with
  | Some m -> Magazine.free m node
  | None -> Allocator.free t.allocator node

let pages_spanned ~phys ~bytes =
  let first = Addr.pfn phys in
  let last = Addr.pfn (Addr.add phys (bytes - 1)) in
  last - first + 1

(* Every phase below is bracketed with Cycles.now/Breakdown.charge
   rather than a closure-taking Breakdown.phase, so the steady-state
   paths allocate nothing. *)

(* The per-entry-point bookkeeping: one call counted, one call overhead
   charged, whatever the batch size. *)
let enter t bd =
  Breakdown.record_call bd;
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  Breakdown.charge bd Other t.cost.Cost_model.call_overhead

(* A segment the frame pool ran dry on: clear the [mapped] PTEs it
   installed, free its IOVA range and report the one exhaustion. Page-
   table nodes carved on the way stay in the table, as after an
   unmap. *)
let unwind_seg t ~iova_pfn ~mapped =
  for i = 0 to mapped - 1 do
    ignore (Arena.unmap_exn t.table ~iova:((iova_pfn + i) lsl Addr.page_shift) : int)
  done;
  iova_free t (iova_find_exn t ~pfn:iova_pfn);
  raise Exhausted

(* One segment's mapping work, atomic: it maps every page or, raising
   [Exhausted], none. The allocator guarantees a fresh range, so
   Arena.Already_mapped cannot fire. *)
let map_seg_exn t ~phys ~bytes ~read ~write =
  let npages = pages_spanned ~phys ~bytes in
  let s = Cycles.now t.clock in
  let iova_pfn = iova_alloc_pfn t ~size:npages in
  Breakdown.charge t.bm Iova_alloc (Cycles.since t.clock s);
  if iova_pfn < 0 then raise Exhausted;
  let s = Cycles.now t.clock in
  let i = ref 0 in
  (match
     while !i < npages do
       let pte = Pte.pack_make ~read ~write ~pfn:(Addr.pfn phys + !i) in
       Arena.map_exn t.table ~iova:((iova_pfn + !i) lsl Addr.page_shift) ~pte;
       incr i
     done
   with
  | () -> ()
  | exception Frame_allocator.Exhausted -> unwind_seg t ~iova_pfn ~mapped:!i);
  Breakdown.charge t.bm Page_table (Cycles.since t.clock s);
  (iova_pfn lsl Addr.page_shift) lor Addr.page_offset phys

let map_exn t ~phys ~bytes ~read ~write =
  if bytes <= 0 then invalid_arg "Driver.map: bytes";
  enter t t.bm;
  map_seg_exn t ~phys ~bytes ~read ~write

(* {2 Unmap phases} *)

let find_node_exn t ~iova =
  let s = Cycles.now t.clock in
  match iova_find_exn t ~pfn:(iova lsr Addr.page_shift) with
  | node ->
      Breakdown.charge t.bu Iova_find (Cycles.since t.clock s);
      node
  | exception Not_found ->
      Breakdown.charge t.bu Iova_find (Cycles.since t.clock s);
      raise Not_mapped

let clear_ptes t node =
  let s = Cycles.now t.clock in
  for p = Rbtree.lo node to Rbtree.hi node do
    (* map installed every page of the range together, so only a range
       already cleared misses here (Arena raises our Not_mapped): a
       deferred-mode double unmap, whose IOVA stays allocated until the
       batched flush *)
    ignore (Arena.unmap_exn t.table ~iova:(p lsl Addr.page_shift) : int)
  done;
  Breakdown.charge t.bu Page_table (Cycles.since t.clock s)

(* Release one IOVA range back to the allocator. Attributed to the
   unmap breakdown whether it runs inline (strict) or from a batched
   flush (deferred): the cost is amortized over unmap calls either
   way. *)
let release t node =
  let s = Cycles.now t.clock in
  iova_free t node;
  Breakdown.charge t.bu Iova_free (Cycles.since t.clock s)

let invalidate_range t node =
  let s = Cycles.now t.clock in
  (match t.target with
  | Own iotlb ->
      for p = Rbtree.lo node to Rbtree.hi node do
        Iotlb.invalidate iotlb ~bdf:t.rid ~vpn:p
      done
  | Domain (shared, id) | Global ({ shared; _ }, id) ->
      for p = Rbtree.lo node to Rbtree.hi node do
        Shared_iotlb.invalidate shared ~domain:id ~bdf:t.rid ~vpn:p
      done);
  Breakdown.charge t.bu Iotlb_inv (Cycles.since t.clock s)

(* The one flush that drops exactly this driver's entries: the batch
   flush of [unmap_sg_exn ~flush:Once]. *)
let flush_own t =
  let s = Cycles.now t.clock in
  (match t.target with
  | Own iotlb -> Iotlb.flush_all iotlb
  | Domain (shared, id) | Global ({ shared; _ }, id) ->
      Shared_iotlb.flush_domain shared ~domain:id);
  Breakdown.charge t.bu Iotlb_inv (Cycles.since t.clock s)

let drain t =
  while not (Queue.is_empty t.queue) do
    release t (Queue.pop t.queue)
  done

(* A batched flush at the target's scope. A global flush wipes every
   member's entries, so it closes - and drains - every member's stale
   windows too. *)
let do_flush t =
  let s = Cycles.now t.clock in
  (match t.target with
  | Own iotlb -> Iotlb.flush_all iotlb
  | Domain (shared, id) -> Shared_iotlb.flush_domain shared ~domain:id
  | Global (g, _) -> Shared_iotlb.flush_all g.shared);
  Breakdown.charge t.bu Iotlb_inv (Cycles.since t.clock s);
  match t.target with
  | Own _ | Domain _ -> drain t
  | Global (g, _) -> List.iter drain g.members

(* Deferred-mode enqueue, split out of [unmap_one_exn] so the queue-cell
   allocation stays outside the gated immediate path. *)
let defer_release t node ~batch =
  Cycles.charge t.clock (2 * t.cost.Cost_model.mem_ref_cached);
  Breakdown.charge t.bu Other (2 * t.cost.Cost_model.mem_ref_cached);
  Queue.add node t.queue;
  if Queue.length t.queue >= batch then do_flush t

(* One IOVA's unmapping work under the policy; the caller has already
   paid the entry-point bookkeeping. *)
let unmap_one_exn t ~iova =
  let node = find_node_exn t ~iova in
  clear_ptes t node;
  match t.policy with
  | Immediate ->
      invalidate_range t node;
      release t node
  | Deferred { batch } ->
      (* Queueing is cheap; the IOVA stays allocated (and the stale
         IOTLB entry usable) until the batched flush. *)
      defer_release t node ~batch

let unmap_exn t ~iova =
  enter t t.bu;
  unmap_one_exn t ~iova

(* {2 Scatter-gather batches} *)

let check_batch name ~n len = if n < 0 || n > len then invalid_arg name

(* Tear down the first [n] just-mapped segments of a failed batch. They
   were never visible to the device (no translation happened), so no
   invalidation is needed: clear the table entries and release the
   IOVAs directly. *)
let rollback t ~iovas n =
  for j = n - 1 downto 0 do
    let node = find_node_exn t ~iova:iovas.(j) in
    clear_ptes t node;
    release t node
  done

let map_sg_exn t ~phys ~bytes ~n ~iovas ~read ~write =
  check_batch "Driver.map_sg: n" ~n (Array.length phys);
  if n > Array.length bytes || n > Array.length iovas then
    invalid_arg "Driver.map_sg: arrays too small";
  enter t t.bm;
  let i = ref 0 in
  match
    while !i < n do
      let b = bytes.(!i) in
      if b <= 0 then invalid_arg "Driver.map_sg: bytes";
      iovas.(!i) <- map_seg_exn t ~phys:phys.(!i) ~bytes:b ~read ~write;
      incr i
    done
  with
  | () -> n
  | exception Exhausted ->
      (* atomic: roll the partial batch back before re-raising *)
      rollback t ~iovas !i;
      raise Exhausted

let unmap_sg_exn t ~iovas ~n ~flush =
  check_batch "Driver.unmap_sg: n" ~n (Array.length iovas);
  enter t t.bu;
  match flush with
  | Per_iova ->
      for i = 0 to n - 1 do
        unmap_one_exn t ~iova:iovas.(i)
      done
  | Once -> (
      let i = ref 0 in
      match
        while !i < n do
          let node = find_node_exn t ~iova:iovas.(!i) in
          clear_ptes t node;
          release t node;
          incr i
        done
      with
      | () -> if n > 0 then flush_own t
      | exception Not_mapped ->
          (* close the stale windows already opened, then report *)
          if !i > 0 then flush_own t;
          raise Not_mapped)

let flush t = if not (Queue.is_empty t.queue) then do_flush t
let pending t = Queue.length t.queue
let map_breakdown t = t.bm
let unmap_breakdown t = t.bu
let live_mappings t = Arena.mapped_count t.table
let rcache t = t.rcache

(* {2 Translation (the hardware side, Figure 5)} *)

let fault t cls =
  t.faults <- t.faults + 1;
  t.fault_class <- cls;
  raise Translation_fault

(* The one translate body: IOTLB lookup at the target, walk and fill on
   a miss, permission check. Allocation-free hit or miss: the phys
   result is an immediate and every fault class raises the constant
   [Translation_fault], after bumping the counter and noting the class
   for [last_fault]. An IOVA outside the 48-bit space (negative ones
   included) has no translation. *)
let[@inline] translate_exn t ~iova ~write =
  if iova lsr Arena.iova_bits <> 0 then fault t No_translation;
  let vpn = iova lsr Addr.page_shift in
  let pte =
    match t.target with
    | Own iotlb -> Iotlb.find iotlb ~bdf:t.rid ~vpn ~absent:Pte.packed_none
    | Domain (shared, id) | Global ({ shared; _ }, id) ->
        Shared_iotlb.find shared ~domain:id ~bdf:t.rid ~vpn
  in
  let pte =
    if pte >= 0 then pte
    else begin
      let pte = Arena.walk t.table ~iova:(vpn lsl Addr.page_shift) in
      if pte < 0 then fault t No_translation;
      (match t.target with
      | Own iotlb -> ignore (Iotlb.insert iotlb ~bdf:t.rid ~vpn pte : int)
      | Domain (shared, id) | Global ({ shared; _ }, id) ->
          Shared_iotlb.insert shared ~domain:id ~bdf:t.rid ~vpn pte);
      pte
    end
  in
  if not (Pte.packed_permits pte ~write) then fault t Not_permitted;
  Addr.add (Pte.packed_frame pte) (iova land (Addr.page_size - 1))

let last_fault t = t.fault_class
let faults t = t.faults
