module Addr = Rio_memory.Addr
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Rid_table = Rio_iommu.Rid_table

type fault =
  | Unknown_device
  | Bad_ring
  | Bad_entry
  | Invalid_entry
  | Offset_out_of_range
  | Direction_denied

let pp_fault fmt f =
  Format.pp_print_string fmt
    (match f with
    | Unknown_device -> "unknown device"
    | Bad_ring -> "ring id out of range"
    | Bad_entry -> "ring entry out of range"
    | Invalid_entry -> "invalid rPTE"
    | Offset_out_of_range -> "offset out of range"
    | Direction_denied -> "direction denied")

exception Translation_fault = Rio_iommu.Fault.Translation_fault

(* A context-table entry: the rDEVICE and its rIOTLB entries, one per
   ring. *)
type attached = { dev : Rdevice.t; tlb : Riotlb.entry array }

type t = {
  devices : attached Rid_table.t;
  riotlb : Riotlb.t;
  nowhere : Riotlb.entry;  (* the entry of a ring the device lacks: never filled *)
  clock : Cycles.t;
  cost : Cost_model.t;
  mutable faults : int;
  mutable walks : int;
  mutable prefetch_hits : int;
  mutable fault_class : fault;
}

let create ~clock ~cost =
  {
    devices = Rid_table.create ();
    riotlb = Riotlb.create ~clock ~cost;
    nowhere = Riotlb.empty ();
    clock;
    cost;
    faults = 0;
    walks = 0;
    prefetch_hits = 0;
    fault_class = Unknown_device;
  }

let detach t ~rid =
  match Rid_table.find_exn t.devices rid with
  | a ->
      Array.iter (Riotlb.drop t.riotlb) a.tlb;
      Rid_table.remove t.devices rid
  | exception Not_found -> ()

let attach t dev =
  detach t ~rid:(Rdevice.rid dev);
  Rid_table.replace t.devices (Rdevice.rid dev)
    { dev; tlb = Array.init (Rdevice.ring_count dev) (fun _ -> Riotlb.empty ()) }

let riotlb t = t.riotlb

let entry t a ring =
  if ring >= 0 && ring < Array.length a.tlb then a.tlb.(ring) else t.nowhere

let invalidate t ~bdf ~ring =
  let e =
    match Rid_table.find_exn t.devices bdf with
    | a -> entry t a ring
    | exception Not_found -> t.nowhere
  in
  Riotlb.invalidate t.riotlb e

let fault t cls =
  t.faults <- t.faults + 1;
  t.fault_class <- cls;
  raise Translation_fault

(* rprefetch (Figure 10, bottom/right): asynchronously copy the ring's
   next rPTE into the entry if it is valid. Asynchronous, hence free. *)
let rprefetch ring (e : Riotlb.entry) =
  let size = Rring.size ring in
  let next = (e.rentry + 1) mod size in
  let w = Rring.hw_word1 ring next in
  if size > 1 && Rpte.valid w then begin
    e.next_phys <- Rring.hw_phys ring next;
    e.next_word1 <- w
  end
  else e.next_word1 <- Rpte.invalid

(* rtable_walk (Figure 10, top/right): validate the rIOVA against the
   flat-table bounds and the rPTE valid bit (reading the walker-visible
   views), then refill the ring's rIOTLB entry. Two DRAM references:
   the rRING descriptor and the rPTE. *)
let rtable_walk t dev e ~ring ~rentry =
  t.walks <- t.walks + 1;
  Cycles.charge t.clock (2 * t.cost.Cost_model.io_walk_ref);
  if ring < 0 || ring >= Rdevice.ring_count dev then fault t Bad_ring;
  let r = Rdevice.ring dev ring in
  if rentry >= Rring.size r then fault t Bad_entry;
  let w = Rring.hw_word1 r rentry in
  if not (Rpte.valid w) then fault t Invalid_entry;
  Riotlb.fill t.riotlb e ~rentry ~phys:(Rring.hw_phys r rentry) ~word1:w;
  rprefetch r e

(* riotlb_entry_sync (Figure 10, bottom/left): move the ring's single
   entry to the rIOVA's rPTE - from the prefetched copy when the access
   is the expected sequential successor, else via a table walk. The
   entry is present, so a walk of this ring once succeeded. *)
let riotlb_entry_sync t dev (e : Riotlb.entry) ~ring ~rentry =
  let r = Rdevice.ring dev ring in
  let next = (e.rentry + 1) mod Rring.size r in
  if Rpte.valid e.next_word1 && rentry = next then begin
    t.prefetch_hits <- t.prefetch_hits + 1;
    e.rentry <- next;
    e.phys <- e.next_phys;
    e.word1 <- e.next_word1;
    rprefetch r e
  end
  else rtable_walk t dev e ~ring ~rentry

(* rtranslate (Figure 10, top/left). *)
let rtranslate_exn t ~bdf ~iova ~write =
  let a =
    match Rid_table.find_exn t.devices bdf with
    | a -> a
    | exception Not_found -> fault t Unknown_device
  in
  let ring = Riova.rid iova and rentry = Riova.rentry iova in
  let e = entry t a ring in
  if Riotlb.find t.riotlb e then begin
    if e.rentry <> rentry then riotlb_entry_sync t a.dev e ~ring ~rentry
  end
  else rtable_walk t a.dev e ~ring ~rentry;
  let offset = Riova.offset iova in
  if offset >= Rpte.size e.word1 then fault t Offset_out_of_range;
  if not (Rpte.permits e.word1 ~write) then fault t Direction_denied;
  Addr.phys_of_int (e.phys + offset)

let last_fault t = t.fault_class
let faults t = t.faults
let walks t = t.walks
let prefetch_hits t = t.prefetch_hits
