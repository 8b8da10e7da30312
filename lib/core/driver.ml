module Addr = Rio_memory.Addr
module Breakdown = Rio_sim.Breakdown
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

exception Overflow
exception Not_mapped = Rio_iommu.Fault.Not_mapped

type t = {
  device : Rdevice.t;
  hw : Hw.t;
  clock : Cycles.t;
  cost : Cost_model.t;
  bm : Breakdown.t;
  bu : Breakdown.t;
}

let create ~device ~hw ~clock ~cost =
  { device; hw; clock; cost; bm = Breakdown.create (); bu = Breakdown.create () }

(* Every phase below is bracketed with Cycles.now/Breakdown.charge, as
   in the baseline driver, so the paths allocate nothing. *)

let enter t bd =
  Breakdown.record_call bd;
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  Breakdown.charge bd Other t.cost.Cost_model.call_overhead

let map_exn t ~rid ~phys ~size ~dir =
  enter t t.bm;
  let ring = Rdevice.ring t.device rid in
  (* The tail rPTE is live when the ring is full, or after an
     out-of-order unmap (§4 assumes in-order ones); reusing it would
     silently re-map that live rIOVA. *)
  if Rpte.valid (Rring.cpu_word1 ring (Rring.tail ring)) then raise Overflow;
  let word1 = Rpte.word1 ~size ~dir in
  (* "IOVA allocation" is two integer updates on the ring tail. *)
  let s = Cycles.now t.clock in
  Cycles.charge t.clock (2 * t.cost.Cost_model.mem_ref_cached);
  let slot = Rring.tail ring in
  Rring.set_tail ring ((slot + 1) mod Rring.size ring);
  Rring.incr_nmapped ring;
  Breakdown.charge t.bm Iova_alloc (Cycles.since t.clock s);
  (* Fill the rPTE and publish it to the walker (sync_mem). *)
  let s = Cycles.now t.clock in
  Cycles.charge t.clock (4 * t.cost.Cost_model.mem_ref_cached);
  Rring.set_cpu ring slot ~phys:(Addr.to_int phys) ~word1;
  Rring.sync ring slot;
  Breakdown.charge t.bm Page_table (Cycles.since t.clock s);
  (Riova.pack ~offset:0 ~rentry:slot ~rid :> int)

let unmap_exn t iova ~end_of_burst =
  enter t t.bu;
  let rid = Riova.rid iova and slot = Riova.rentry iova in
  if rid < 0 || rid >= Rdevice.ring_count t.device then raise Not_mapped;
  let ring = Rdevice.ring t.device rid in
  if slot >= Rring.size ring || not (Rpte.valid (Rring.cpu_word1 ring slot)) then
    raise Not_mapped;
  let s = Cycles.now t.clock in
  Cycles.charge t.clock t.cost.Cost_model.mem_ref_cached;
  Rring.set_cpu ring slot ~phys:0 ~word1:Rpte.invalid;
  Rring.sync ring slot;
  Breakdown.charge t.bu Page_table (Cycles.since t.clock s);
  let s = Cycles.now t.clock in
  Cycles.charge t.clock t.cost.Cost_model.mem_ref_cached;
  Rring.decr_nmapped ring;
  Breakdown.charge t.bu Iova_free (Cycles.since t.clock s);
  if end_of_burst then begin
    let s = Cycles.now t.clock in
    Hw.invalidate t.hw ~bdf:(Rdevice.rid t.device) ~ring:rid;
    Breakdown.charge t.bu Iotlb_inv (Cycles.since t.clock s)
  end

let map_breakdown t = t.bm
let unmap_breakdown t = t.bu
let nmapped t ~rid = Rring.nmapped (Rdevice.ring t.device rid)
