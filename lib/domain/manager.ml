module Addr = Rio_memory.Addr
module Frame_allocator = Rio_memory.Frame_allocator
module Coherency = Rio_memory.Coherency
module Pte = Rio_pagetable.Pte
module Arena = Rio_pagetable.Arena
module Allocator = Rio_iova.Allocator
module Bdf = Rio_iommu.Bdf
module Rid_table = Rio_iommu.Rid_table
module Hw = Rio_iommu.Hw
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

type invalidation = Per_domain | Global

let invalidation_name = function
  | Per_domain -> "per-domain"
  | Global -> "global"

type policy = Immediate | Deferred of { batch : int }

exception Exhausted
exception Not_mapped

(* The allocator each tenant's map/unmap goes through: the bare
   constant-time allocator, or the same allocator behind a Bonwick
   magazine cache (the [--rcache] front the serve shards enable so
   steady-state IOVA recycling never touches the tree). *)
type front =
  | Direct of Allocator.t
  | Cached of Rio_iova.Magazine.t

type domain = {
  id : int;
  name : string;
  bdf : Bdf.t;
  rid : int;
  table : Arena.t;
  front : front;
  queue : Rio_iova.Rbtree.node Queue.t;
  mutable faults : int;
}

(* Unboxed allocator front: -1 for exhaustion, Not_found for an unknown
   pfn, identical cycle charges to the boxed variants. *)
let front_alloc_pfn d ~size =
  match d.front with
  | Direct a -> Allocator.alloc_pfn a ~size
  | Cached m -> Rio_iova.Magazine.alloc_pfn m ~size

let front_find d ~pfn =
  match d.front with
  | Direct a -> Allocator.find a ~pfn
  | Cached m -> Rio_iova.Magazine.find m ~pfn

let front_find_exn d ~pfn =
  match d.front with
  | Direct a -> Allocator.find_exn a ~pfn
  | Cached m -> Rio_iova.Magazine.find_exn m ~pfn

let front_free d node =
  match d.front with
  | Direct a -> Allocator.free a node
  | Cached m -> Rio_iova.Magazine.free m node

(* [rids] is the one context table: rid -> domain for both translate
   forms, sized to the attached set (see Rid_table). *)
type t = {
  iotlb : Shared_iotlb.t;
  rids : domain Rid_table.t;
  invalidation : invalidation;
  policy : policy;
  frames : Frame_allocator.t;
  coherency : Coherency.t;
  clock : Cycles.t;
  cost : Cost_model.t;
  rcache : bool;
  mutable doms : domain list;  (* reversed creation order *)
  mutable next_id : int;
  mutable unknown_rid_faults : int;
  (* class of the last fault [translate_exn] raised, for [translate] *)
  mutable fault_class : Hw.fault;
}

let create ~iotlb_policy ~iotlb_capacity ~invalidation ~policy ~frames ~clock
    ~cost ?(coherent_walk = false) ?(rcache = false) () =
  {
    iotlb =
      Shared_iotlb.create ~policy:iotlb_policy ~capacity:iotlb_capacity ~clock
        ~cost;
    rids = Rid_table.create ();
    invalidation;
    policy;
    frames;
    coherency = Coherency.create ~coherent:coherent_walk ~cost ~clock;
    clock;
    cost;
    rcache;
    doms = [];
    next_id = 1;
    unknown_rid_faults = 0;
    fault_class = Hw.No_translation;
  }

let add_domain t ~name ~bdf ?(iova_limit_pfn = 0xFFFFF) () =
  let rid = Bdf.to_rid bdf in
  if Rid_table.mem t.rids rid then
    invalid_arg "Manager.add_domain: bdf already attached";
  let id = t.next_id in
  t.next_id <- id + 1;
  let table =
    Arena.create ~frames:t.frames ~coherency:t.coherency ~clock:t.clock
      ~cost:t.cost
  in
  Shared_iotlb.register t.iotlb ~domain:id ~bdf:rid;
  let allocator =
    Allocator.create ~kind:Allocator.Fast ~limit_pfn:iova_limit_pfn
      ~clock:t.clock ~cost:t.cost
  in
  let front =
    if t.rcache then
      Cached
        (Rio_iova.Magazine.create ~base:allocator ~clock:t.clock ~cost:t.cost
           ())
    else Direct allocator
  in
  let d =
    { id; name; bdf; rid; table; front; queue = Queue.create (); faults = 0 }
  in
  t.doms <- d :: t.doms;
  Rid_table.replace t.rids rid d;
  d

let remove_domain t d =
  Rid_table.remove t.rids d.rid;
  t.doms <- List.filter (fun x -> x.id <> d.id) t.doms;
  (* flush before unregistering: the shared-policy flush attributes
     entries to this domain through the bdf ownership table *)
  Shared_iotlb.flush_domain t.iotlb ~domain:d.id;
  Shared_iotlb.unregister t.iotlb ~domain:d.id ~bdf:d.rid

let domains t = List.rev t.doms
let domain_id d = d.id
let domain_name d = d.name
let bdf d = d.bdf
let rid d = d.rid
let iotlb t = t.iotlb

let pages_spanned ~phys ~bytes =
  let first = Addr.pfn phys in
  let last = Addr.pfn (Addr.add phys (bytes - 1)) in
  last - first + 1

(* One segment's mapping work, shared by [map] and [map_sg_exn];
   the caller has already charged the per-entry-point overhead. The
   allocator guarantees a fresh range, so Arena.Already_mapped cannot
   fire. Zero-alloc after warm-up. *)
let map_seg_exn d ~phys ~bytes ~read ~write =
  let npages = pages_spanned ~phys ~bytes in
  let iova_pfn = front_alloc_pfn d ~size:npages in
  if iova_pfn < 0 then raise Exhausted;
  for i = 0 to npages - 1 do
    let pte = Pte.pack_make ~read ~write ~pfn:(Addr.pfn phys + i) in
    Arena.map_exn d.table
      ~iova:((iova_pfn + i) lsl Addr.page_shift)
      ~pte
  done;
  (iova_pfn lsl Addr.page_shift) lor Addr.page_offset phys

let map_seg d ~phys ~bytes ~read ~write =
  match map_seg_exn d ~phys ~bytes ~read ~write with
  | iova -> Ok iova
  | exception Exhausted -> Error `Exhausted

let map t d ~phys ~bytes ~read ~write =
  if bytes <= 0 then invalid_arg "Manager.map: bytes";
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  map_seg d ~phys ~bytes ~read ~write

let release d node = front_free d node

let drain_queue d =
  Queue.iter (release d) d.queue;
  Queue.clear d.queue

(* A batched flush. Per-domain scope touches only this tenant; global
   scope (the Linux strategy) wipes the whole IOTLB and therefore may
   release every tenant's queued IOVAs — their stale windows close too. *)
let do_flush t d =
  (match t.invalidation with
  | Per_domain ->
      Shared_iotlb.flush_domain t.iotlb ~domain:d.id;
      drain_queue d
  | Global ->
      Shared_iotlb.flush_all t.iotlb;
      List.iter drain_queue t.doms);
  ()

(* One IOVA's unmapping work, shared by [unmap] and [unmap_sg]; the
   caller has already charged the per-entry-point overhead. *)
let unmap_one t d ~iova =
  let pfn = iova lsr Addr.page_shift in
  match front_find d ~pfn with
  | None -> Error `Not_mapped
  | Some node ->
      let lo = Rio_iova.Rbtree.lo node and hi = Rio_iova.Rbtree.hi node in
      for p = lo to hi do
        (* map installed every page of the range *)
        ignore
          (Arena.unmap_exn d.table
             ~iova:(p lsl Addr.page_shift))
      done;
      (match t.policy with
      | Immediate ->
          for p = lo to hi do
            Shared_iotlb.invalidate t.iotlb ~domain:d.id ~bdf:d.rid ~vpn:p
          done;
          release d node
      | Deferred { batch } ->
          Cycles.charge t.clock (2 * t.cost.Cost_model.mem_ref_cached);
          Queue.add node d.queue;
          if Queue.length d.queue >= batch then do_flush t d);
      Ok ()

let unmap t d ~iova =
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  unmap_one t d ~iova

(* {2 Scatter-gather batches}

   One driver entry point amortized over every segment: the fixed
   bookkeeping (call, locking, marshalling — Table 1's "other" rows) is
   charged once per batch instead of once per segment, which is the
   same amortization the paper's rIOMMU gets from posting a burst of
   ring updates behind one doorbell. Invalidation amortization comes
   from the deferred queue as usual: a batch of unmaps fills it [n]
   entries at a time and still flushes once per [batch]. *)

(* Tear down the first [n] just-mapped segments of a failed batch. They
   were never visible to the device (no translation happened), so no
   invalidation commands are needed — release table entries and IOVAs
   directly. *)
let rollback d ~iovas n =
  for j = n - 1 downto 0 do
    let pfn = iovas.(j) lsr Addr.page_shift in
    let node = front_find_exn d ~pfn in
    let lo = Rio_iova.Rbtree.lo node and hi = Rio_iova.Rbtree.hi node in
    for p = lo to hi do
      ignore
        (Arena.unmap_exn d.table
           ~iova:(p lsl Addr.page_shift))
    done;
    release d node
  done

let unmap_sg t d ~iovas ?n () =
  let n = match n with Some n -> n | None -> Array.length iovas in
  if n < 0 || n > Array.length iovas then invalid_arg "Manager.unmap_sg: n";
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  let rec go i =
    if i = n then Ok ()
    else
      match unmap_one t d ~iova:iovas.(i) with
      | Ok () -> go (i + 1)
      | Error `Not_mapped -> Error `Not_mapped
  in
  go 0

(* {2 Zero-alloc scatter-gather twins}

   The batch entry points without option/result/list boxes, for the
   service's steady state and the zero-alloc gate; [map_sg] is a thin
   result wrapper over [map_sg_exn]. [unmap_sg_exn], unlike [unmap_sg],
   also batches the {e invalidation}: instead of one
   invalidation command per page (iotlb_invalidate each), the whole
   batch is torn down first and a single domain-selective flush closes
   every stale window at once (the §3.2 amortization, one
   iotlb_global_flush for the burst). Until that flush the device can
   still reach the just-unmapped pages through stale IOTLB entries —
   the same window the deferred modes accept, here bounded by one call.
   The flush is allocation-free under every IOTLB policy (the [Shared]
   one drops the domain's entries in place during one LRU scan). *)

let map_sg_exn t d ~segs ?n ~iovas ~read ~write () =
  let n = match n with Some n -> n | None -> Array.length segs in
  if n < 0 || n > Array.length segs then invalid_arg "Manager.map_sg: n";
  if n > Array.length iovas then invalid_arg "Manager.map_sg: iovas too small";
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  let i = ref 0 in
  match
    while !i < n do
      let phys, bytes = segs.(!i) in
      if bytes <= 0 then invalid_arg "Manager.map_sg: bytes";
      iovas.(!i) <- map_seg_exn d ~phys ~bytes ~read ~write;
      incr i
    done
  with
  | () -> n
  | exception Exhausted ->
      (* atomic: roll the partial batch back before re-raising *)
      rollback d ~iovas !i;
      raise Exhausted

let map_sg t d ~segs ?n ~iovas ~read ~write () =
  match map_sg_exn t d ~segs ?n ~iovas ~read ~write () with
  | n -> Ok n
  | exception Exhausted -> Error `Exhausted

let unmap_sg_exn t d ~iovas ?n () =
  let n = match n with Some n -> n | None -> Array.length iovas in
  if n < 0 || n > Array.length iovas then invalid_arg "Manager.unmap_sg: n";
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  let i = ref 0 in
  match
    while !i < n do
      let pfn = iovas.(!i) lsr Addr.page_shift in
      let node = front_find_exn d ~pfn in
      let lo = Rio_iova.Rbtree.lo node and hi = Rio_iova.Rbtree.hi node in
      for p = lo to hi do
        ignore
          (Arena.unmap_exn d.table
             ~iova:(p lsl Addr.page_shift))
      done;
      release d node;
      incr i
    done
  with
  | () -> if n > 0 then Shared_iotlb.flush_domain t.iotlb ~domain:d.id
  | exception Not_found ->
      (* close the stale windows already opened, then report *)
      if !i > 0 then Shared_iotlb.flush_domain t.iotlb ~domain:d.id;
      raise Not_mapped

let flush t d = if not (Queue.is_empty d.queue) then do_flush t d
let pending _t d = Queue.length d.queue
let live_mappings _t d = Arena.mapped_count d.table

exception Translation_fault

let fault t d cls =
  d.faults <- d.faults + 1;
  t.fault_class <- cls;
  raise Translation_fault

(* The one translate body: rid table, shared-IOTLB find, walk and fill
   on a miss, permission check. Allocation-free hit or miss: the phys
   result is an immediate and every fault class raises the constant
   [Translation_fault], after bumping its counter and noting its class
   for [translate]. *)
let translate_exn t ~rid ~iova ~write =
  let d =
    match Rid_table.find_exn t.rids rid with
    | d -> d
    | exception Not_found ->
        t.unknown_rid_faults <- t.unknown_rid_faults + 1;
        t.fault_class <- Hw.Unknown_device;
        raise Translation_fault
  in
  let vpn = iova lsr Addr.page_shift in
  let pte = Shared_iotlb.find t.iotlb ~domain:d.id ~bdf:rid ~vpn in
  let pte =
    if pte >= 0 then pte
    else begin
      let pte = Arena.walk d.table ~iova:(vpn lsl Addr.page_shift) in
      if pte < 0 then fault t d Hw.No_translation;
      Shared_iotlb.insert t.iotlb ~domain:d.id ~bdf:rid ~vpn pte;
      pte
    end
  in
  if not (Pte.packed_permits pte ~write) then fault t d Hw.Not_permitted;
  Addr.add (Pte.packed_frame pte) (iova land (Addr.page_size - 1))

let translate t ~rid ~iova ~write =
  match translate_exn t ~rid ~iova ~write with
  | phys -> Ok phys
  | exception Translation_fault -> Error t.fault_class

let faults _t d = d.faults
let unknown_rid_faults t = t.unknown_rid_faults
let iotlb_stats t d = Shared_iotlb.stats t.iotlb ~domain:d.id
