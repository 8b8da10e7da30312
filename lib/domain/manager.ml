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

type domain = {
  id : int;
  name : string;
  bdf : Bdf.t;
  rid : int;
  table : Arena.t;
  driver : Driver.t;
  mutable faults : int;
}

(* [rids] is the one context table: rid -> domain for both translate
   forms, sized to the attached set (see Rid_table). [group] holds the
   tenants' drivers for [Global] invalidation. *)
type t = {
  iotlb : Shared_iotlb.t;
  group : Driver.group;
  rids : domain Rid_table.t;
  invalidation : invalidation;
  policy : Driver.policy;
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
  let iotlb =
    Shared_iotlb.create ~policy:iotlb_policy ~capacity:iotlb_capacity ~clock
      ~cost
  in
  {
    iotlb;
    group = Driver.group iotlb;
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
  let rcache =
    if t.rcache then
      Some
        (Rio_iova.Magazine.create ~base:allocator ~clock:t.clock ~cost:t.cost
           ())
    else None
  in
  let target =
    match t.invalidation with
    | Per_domain -> Driver.Domain (t.iotlb, id)
    | Global -> Driver.Global (t.group, id)
  in
  let driver =
    Driver.create ?rcache
      ~domain:(Rio_iommu.Context.Domain.make ~id ~table)
      ~allocator ~target ~rid ~policy:t.policy ~clock:t.clock ~cost:t.cost ()
  in
  let d = { id; name; bdf; rid; table; driver; faults = 0 } in
  t.doms <- d :: t.doms;
  Rid_table.replace t.rids rid d;
  d

let remove_domain t d =
  Rid_table.remove t.rids d.rid;
  t.doms <- List.filter (fun x -> x.id <> d.id) t.doms;
  Driver.leave d.driver;
  (* flush before unregistering: the shared-policy flush attributes
     entries to this domain through the bdf ownership table *)
  Shared_iotlb.flush_domain t.iotlb ~domain:d.id;
  Shared_iotlb.unregister t.iotlb ~domain:d.id ~bdf:d.rid

let domains t = List.rev t.doms
let domain_id d = d.id
let domain_name d = d.name
let bdf d = d.bdf
let rid d = d.rid
let driver d = d.driver
let iotlb t = t.iotlb

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
