(* A shard is a vertical slice of the service: manager + clock +
   metrics, owned by exactly one worker domain at a time. Shard state
   is handed across ticks only through the pool's fork/join barrier,
   so none of it needs atomics — the lint's domain-safety rule checks
   that nothing here is module-level mutable. *)

open Rio_memory
open Rio_domain

type op = Map | Unmap | Translate | Map_sg

let op_name = function
  | Map -> "map"
  | Unmap -> "unmap"
  | Translate -> "translate"
  | Map_sg -> "map_sg"

let op_index = function Map -> 0 | Unmap -> 1 | Translate -> 2 | Map_sg -> 3
let op_count = 4

let op_of_index = function
  | 0 -> Map
  | 1 -> Unmap
  | 2 -> Translate
  | 3 -> Map_sg
  | _ -> invalid_arg "Shard.op_of_index"

type t = {
  id : int;
  mgr : Manager.t;
  clock : Rio_sim.Cycles.t;
  doms : Manager.domain array;
  drivers : Driver.t array;  (* per tenant: the map/unmap/translate engine *)
  hists : Histogram.t array;  (* indexed by op_index *)
  tenant_hists : Histogram.t array;  (* per tenant, all op kinds pooled *)
  bufs : Addr.phys array;
  mutable buf_next : int;
}

(* Frames beyond the DMA buffer pool feed each tenant's radix
   page-table nodes; the pool sizes below keep a 64-tenant shard far
   from exhaustion. *)
let table_frames = 16_384

let create ~id ~tenants ~iotlb_capacity ~iotlb_policy ~rcache ?(buf_pool = 1024)
    () =
  if tenants < 1 || tenants > 254 then invalid_arg "Shard.create: tenants";
  if buf_pool < 1 then invalid_arg "Shard.create: buf_pool";
  let frames = Frame_allocator.create ~total_frames:(buf_pool + table_frames) in
  let clock = Rio_sim.Cycles.create () in
  let mgr =
    Manager.create ~iotlb_policy ~iotlb_capacity ~invalidation:Manager.Per_domain
      ~policy:Driver.Immediate ~frames ~clock ~cost:Rio_sim.Cost_model.default
      ~rcache ()
  in
  let doms =
    Array.init tenants (fun i ->
        Manager.add_domain mgr
          ~name:(Printf.sprintf "shard%d/tenant%d" id i)
          ~bdf:(Rio_iommu.Bdf.make ~bus:(i + 1) ~device:0 ~func:0)
          ())
  in
  let drivers = Array.map Manager.driver doms in
  let bufs = Array.init buf_pool (fun _ -> Frame_allocator.alloc_exn frames) in
  {
    id;
    mgr;
    clock;
    doms;
    drivers;
    hists = Array.init op_count (fun _ -> Histogram.create ());
    tenant_hists = Array.init tenants (fun _ -> Histogram.create ());
    bufs;
    buf_next = 0;
  }

let id t = t.id
let tenants t = Array.length t.doms
let clock t = t.clock
let manager t = t.mgr
let domain t ~tenant = t.doms.(tenant)

let next_buf t =
  let b = t.bufs.(t.buf_next) in
  let n = t.buf_next + 1 in
  (* a compare, not [mod]: this runs once per mapped page *)
  t.buf_next <- (if n = Array.length t.bufs then 0 else n);
  b

(* Inlined: [translate_record] is the per-DMA hot path. *)
let[@inline] record t op ~tenant start =
  let dt = Rio_sim.Cycles.since t.clock start in
  Histogram.record2 t.hists.(op) t.tenant_hists.(tenant) dt

let map t ~tenant ~phys ~bytes =
  let start = Rio_sim.Cycles.now t.clock in
  let iova =
    match Driver.map_exn t.drivers.(tenant) ~phys ~bytes ~read:true ~write:true with
    | iova -> iova
    | exception Driver.Exhausted -> -1
  in
  record t 0 ~tenant start;
  iova

let map_record t ~tenant ~phys ~bytes =
  let iova = map t ~tenant ~phys ~bytes in
  if iova < 0 then Error `Exhausted else Ok iova

(* Named results: an inline [Ok ()] is a static block too, but the
   zero-alloc lint cannot tell it from a fresh one. *)
let unmapped = Ok ()
let not_mapped = Error `Not_mapped

let unmap_record t ~tenant ~iova =
  let start = Rio_sim.Cycles.now t.clock in
  let r =
    match Driver.unmap_exn t.drivers.(tenant) ~iova with
    | () -> unmapped
    | exception Driver.Not_mapped -> not_mapped
  in
  record t 1 ~tenant start;
  r

let map_sg t ~tenant ~phys ~bytes ~n ~iovas =
  let start = Rio_sim.Cycles.now t.clock in
  let r =
    match
      Driver.map_sg_exn t.drivers.(tenant) ~phys ~bytes ~n ~iovas ~read:true
        ~write:true
    with
    | n -> n
    | exception Driver.Exhausted -> -1
  in
  record t 3 ~tenant start;
  r

let unmap_sg_record t ~tenant ~iovas ~n =
  let start = Rio_sim.Cycles.now t.clock in
  let r =
    match
      Driver.unmap_sg_exn t.drivers.(tenant) ~iovas ~n ~flush:Driver.Per_iova
    with
    | () -> unmapped
    | exception Driver.Not_mapped -> not_mapped
  in
  record t 1 ~tenant start;
  r

let translate_record t ~tenant ~iova ~write =
  let start = Rio_sim.Cycles.now t.clock in
  let phys = Driver.translate_exn t.drivers.(tenant) ~iova ~write in
  record t 2 ~tenant start;
  phys

let hist t op = t.hists.(op_index op)
let tenant_hist t ~tenant = t.tenant_hists.(tenant)
let iotlb_stats t ~tenant = Manager.iotlb_stats t.mgr t.doms.(tenant)
let ops t op = Histogram.count t.hists.(op_index op)

let total_ops t =
  let n = ref 0 in
  Array.iter (fun h -> n := !n + Histogram.count h) t.hists;
  !n

let faults t =
  let n = ref (Manager.unknown_rid_faults t.mgr) in
  Array.iter (fun d -> n := !n + Manager.faults t.mgr d) t.doms;
  !n
