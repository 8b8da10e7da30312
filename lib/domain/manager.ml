module Frame_allocator = Rio_memory.Frame_allocator
module Coherency = Rio_memory.Coherency
module Arena = Rio_pagetable.Arena
module Allocator = Rio_iova.Allocator
module Bdf = Rio_iommu.Bdf
module Rid_table = Rio_iommu.Rid_table
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

type invalidation = Per_domain | Global

type domain = {
  id : int;
  rid : int;
  driver : Driver.t;
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
  mutable next_id : int;
  mutable unknown_rid_faults : int;
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
    next_id = 1;
    unknown_rid_faults = 0;
  }

let add_domain t ~bdf ?(iova_limit_pfn = 0xFFFFF) () =
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
    Driver.create ?rcache ~table ~allocator ~target ~rid ~policy:t.policy
      ~clock:t.clock ~cost:t.cost ()
  in
  let d = { id; rid; driver } in
  Rid_table.replace t.rids rid d;
  d

let remove_domain t d =
  Rid_table.remove t.rids d.rid;
  Driver.leave d.driver;
  (* flush before unregistering: the shared-policy flush attributes
     entries to this domain through the bdf ownership table *)
  Shared_iotlb.flush_domain t.iotlb ~domain:d.id;
  Shared_iotlb.unregister t.iotlb ~domain:d.id ~bdf:d.rid

let domain_id d = d.id
let rid d = d.rid
let driver d = d.driver
let iotlb t = t.iotlb

exception Translation_fault = Driver.Translation_fault

(* Tenancy only: the rid resolves the tenant's driver, whose body does
   the rest. An unknown rid is counted here and raises the same
   constant exception. *)
let[@inline] domain_exn t rid =
  match Rid_table.find_exn t.rids rid with
  | d -> d
  | exception Not_found ->
      t.unknown_rid_faults <- t.unknown_rid_faults + 1;
      raise Translation_fault

let translate_exn t ~rid ~iova ~write =
  Driver.translate_exn (domain_exn t rid).driver ~iova ~write

let faults _t d = Driver.faults d.driver
let unknown_rid_faults t = t.unknown_rid_faults
let iotlb_stats t d = Shared_iotlb.stats t.iotlb ~domain:d.id
