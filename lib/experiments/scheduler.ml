module Addr = Rio_memory.Addr
module Frame_allocator = Rio_memory.Frame_allocator
module Bdf = Rio_iommu.Bdf
module Shared_iotlb = Rio_domain.Shared_iotlb
module Manager = Rio_domain.Manager
module Driver = Rio_domain.Driver
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Event_queue = Rio_sim.Event_queue
module Rng = Rio_sim.Rng
module Mode = Rio_protect.Mode
module Coherency = Rio_memory.Coherency
module Hw = Rio_core.Hw
module Rdevice = Rio_core.Rdevice
module R_driver = Rio_core.Driver
module Riotlb = Rio_core.Riotlb
module Rpte = Rio_core.Rpte

type device_class = Nic | Nvme | Sata

let class_name = function Nic -> "nic" | Nvme -> "nvme" | Sata -> "sata"

type tenant_spec = {
  name : string;
  device : device_class;
  latency_critical : bool;
  pool_pages : int;
  io_bytes : int;
  burst : int;
  think_time : int;
  touches : int;
}

let nic_tenant ?(latency_critical = false) ~name () =
  {
    name;
    device = Nic;
    latency_critical;
    pool_pages = 8;
    io_bytes = 1500;
    burst = 1;
    think_time = 1_000;
    touches = 4;
  }

let nvme_tenant ~name () =
  {
    name;
    device = Nvme;
    latency_critical = false;
    pool_pages = 64;
    io_bytes = 16_384;
    burst = 4;
    think_time = 3_000;
    touches = 16;
  }

let sata_tenant ~name () =
  {
    name;
    device = Sata;
    latency_critical = false;
    pool_pages = 48;
    io_bytes = 65_536;
    burst = 2;
    think_time = 8_000;
    touches = 12;
  }

type tenant_result = {
  spec : tenant_spec;
  ios : int;
  cycles : int;
  ops_per_mcycle : float;
  cycles_per_io : float;
  hits : int;
  misses : int;
  miss_rate : float;
  evictions_by_other : int;
  faults : int;
}

type config = {
  mode : Mode.t;
  policy : Shared_iotlb.policy;
  invalidation : Manager.invalidation;
  iotlb_capacity : int;
  ios_per_tenant : int;
  seed : int;
}

let default_config ?invalidation ?(iotlb_capacity = 128)
    ?(ios_per_tenant = 1_000) ?(seed = 42) ~mode ~policy () =
  let invalidation =
    match invalidation with
    | Some i -> i
    | None -> (
        match policy with
        | Shared_iotlb.Shared -> Manager.Global
        | Shared_iotlb.Partitioned | Shared_iotlb.Quota _ -> Manager.Per_domain)
  in
  { mode; policy; invalidation; iotlb_capacity; ios_per_tenant; seed }

(* Per-tenant mutable run state. [transact] runs one burst and returns
   the I/Os completed, with all cycle costs charged to the shared clock
   (the caller attributes them via Cycles.measure); [counters] reads
   the tenant's (hits, misses, evictions_by_other, faults) so far. *)
type tenant_state = {
  t_spec : tenant_spec;
  t_rng : Rng.t;
  transact : unit -> int;
  counters : unit -> int * int * int * int;
  mutable t_remaining : int;
  mutable t_ios : int;
  mutable t_cycles : int;
}

let bdf_of_index i = Bdf.make ~bus:(1 + (i / 8)) ~device:(i mod 8) ~func:0

(* Persistent working set: mapped once, touched by the device on every
   I/O (descriptor rings, SGL pages, ibverbs-style registrations). *)
let working_set spec frames map =
  Array.init spec.pool_pages (fun _ ->
      match map (Frame_allocator.alloc_exn frames) with
      | iova -> iova
      | exception (Driver.Exhausted | R_driver.Overflow) ->
          failwith "Scheduler: working-set map failed")

(* One burst, the same in every mode: each I/O maps a fresh buffer, the
   device translates each of its pages (the IOVA or rIOVA plus the
   page's byte offset) and [touches] random working-set pages, then the
   buffer is unmapped ([last] on the burst's final I/O). A failed map
   (IOVA space exhausted, ring full) skips that I/O's DMA. *)
let burst spec frames rng pool ~map ~translate ~unmap =
  (* both engines raise the one fault constant; the engine counts it *)
  let translate iova =
    try ignore (translate iova : Addr.phys)
    with Rio_iommu.Fault.Translation_fault -> ()
  in
  for io = 1 to spec.burst do
    let frame = Frame_allocator.alloc_exn frames in
    (match map frame with
    | iova ->
        let npages = (spec.io_bytes + Addr.page_size - 1) / Addr.page_size in
        for p = 0 to npages - 1 do
          translate (iova + (p lsl Addr.page_shift))
        done;
        for _ = 1 to spec.touches do
          translate pool.(Rng.int rng spec.pool_pages)
        done;
        unmap iova ~last:(io = spec.burst)
    | exception (Driver.Exhausted | R_driver.Overflow) -> ());
    Frame_allocator.free frames frame
  done;
  spec.burst

(* {1 Baseline modes: strict / defer through the shared IOTLB} *)

let baseline_tenant mgr frames rng i spec =
  let dom = Manager.add_domain mgr ~bdf:(bdf_of_index i) () in
  let rid = Manager.rid dom and driver = Manager.driver dom in
  let map bytes phys = Driver.map_exn driver ~phys ~bytes ~read:true ~write:true in
  let pool = working_set spec frames (map Addr.page_size) in
  let rng = Rng.split rng in
  let transact () =
    burst spec frames rng pool ~map:(map spec.io_bytes)
      ~translate:(fun iova -> Manager.translate_exn mgr ~rid ~iova ~write:true)
      ~unmap:(fun iova ~last:_ -> Driver.unmap_exn driver ~iova)
  in
  let counters () =
    let s = Manager.iotlb_stats mgr dom in
    ( s.Shared_iotlb.hits,
      s.Shared_iotlb.misses,
      s.Shared_iotlb.evictions_by_other,
      Manager.faults mgr dom )
  in
  (rng, transact, counters)

(* {1 rIOMMU modes: an rDEVICE per tenant on one shared rIOMMU}

   Every tenant's device is attached to the same {!Rio_core.Hw}, so all
   tenants share one rIOTLB (one entry per rRING). Ring 0 holds the
   working set, mapped once at setup - the rRING rdevice.mli assigns to
   pages mapped at initialization; ring 1 takes each I/O buffer as one
   byte-granular rPTE. Every page the device touches goes through
   [Hw.rtranslate_exn]; the burst's last unmap issues the single rIOTLB
   invalidation (Figure 10's amortization). Hits, walks and faults are
   the engine's own counters, read as deltas around each burst: bursts
   run one at a time on one clock. *)

let io_ring_size = 256

let riommu_tenant hw frames coherency clock cost rng i spec =
  let bdf = Bdf.to_rid (bdf_of_index i) in
  let device =
    Rdevice.create ~rid:bdf ~ring_sizes:[ spec.pool_pages; io_ring_size ]
      ~frames ~coherency
  in
  Hw.attach hw device;
  let driver = R_driver.create ~device ~hw ~clock ~cost in
  let map ring size phys =
    R_driver.map_exn driver ~rid:ring ~phys ~size ~dir:Rpte.Bidirectional
  in
  let pool = working_set spec frames (map 0 Addr.page_size) in
  (* every rtranslate looks its ring up in the rIOTLB exactly once *)
  let lookups () = Riotlb.hits (Hw.riotlb hw) + Riotlb.misses (Hw.riotlb hw) in
  let hits = ref 0 and misses = ref 0 and faults = ref 0 in
  let rng = Rng.split rng in
  let transact () =
    let lookups0 = lookups () and walks0 = Hw.walks hw in
    let faults0 = Hw.faults hw in
    let done_ =
      burst spec frames rng pool ~map:(map 1 spec.io_bytes)
        ~translate:(fun iova -> Hw.rtranslate_exn hw ~bdf ~iova ~write:true)
        ~unmap:(fun iova ~last -> R_driver.unmap_exn driver iova ~end_of_burst:last)
    in
    let walks = Hw.walks hw - walks0 in
    misses := !misses + walks;
    hits := !hits + (lookups () - lookups0 - walks);
    faults := !faults + (Hw.faults hw - faults0);
    done_
  in
  (rng, transact, fun () -> (!hits, !misses, 0, !faults))

let finish st =
  let hits, misses, evictions_by_other, faults = st.counters () in
  let per num den = if den = 0 then 0. else num /. float_of_int den in
  {
    spec = st.t_spec;
    ios = st.t_ios;
    cycles = st.t_cycles;
    ops_per_mcycle = per (1e6 *. float_of_int st.t_ios) st.t_cycles;
    cycles_per_io = per (float_of_int st.t_cycles) st.t_ios;
    hits;
    misses;
    miss_rate = per (float_of_int misses) (hits + misses);
    evictions_by_other;
    faults;
  }

let run cfg specs =
  if specs = [] then invalid_arg "Scheduler.run: no tenants";
  (match cfg.mode with
  | Mode.None_ | Mode.Hw_passthrough | Mode.Sw_passthrough ->
      invalid_arg "Scheduler.run: mode has no protection path"
  | Mode.Strict_plus | Mode.Defer_plus ->
      invalid_arg
        "Scheduler.run: strict/defer tenants already run the constant-time \
         allocator"
  | Mode.Strict | Mode.Defer | Mode.Riommu_minus | Mode.Riommu -> ());
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:400_000 in
  let root_rng = Rng.create ~seed:cfg.seed in
  let tenant =
    if Mode.is_riommu cfg.mode then
      let coherency =
        Coherency.create ~coherent:(Mode.coherent_walk cfg.mode) ~cost ~clock
      in
      riommu_tenant (Hw.create ~clock ~cost) frames coherency clock cost
    else
      let policy =
        if Mode.is_deferred cfg.mode then Driver.Deferred { batch = 250 }
        else Driver.Immediate
      in
      let mgr =
        Manager.create ~iotlb_policy:cfg.policy ~iotlb_capacity:cfg.iotlb_capacity
          ~invalidation:cfg.invalidation ~policy ~frames ~clock ~cost
          ~coherent_walk:false ()
      in
      baseline_tenant mgr frames
  in
  let states =
    Array.of_list
      (List.mapi
         (fun i spec ->
           let rng, transact, counters = tenant root_rng i spec in
           {
             t_spec = spec;
             t_rng = rng;
             transact;
             counters;
             t_remaining = cfg.ios_per_tenant;
             t_ios = 0;
             t_cycles = 0;
           })
         specs)
  in
  let queue = Event_queue.create () in
  (* stagger the first submissions so same-time ties only occur when
     think times genuinely collide *)
  Array.iteri (fun i _ -> Event_queue.push queue ~time:i i) states;
  let rec loop () =
    match Event_queue.next_time queue with
    | exception Not_found -> ()
    | now ->
        let i = Event_queue.pop_exn queue in
        let st = states.(i) in
        if st.t_remaining > 0 then begin
          let done_, cyc = Cycles.measure clock st.transact in
          st.t_ios <- st.t_ios + done_;
          st.t_cycles <- st.t_cycles + cyc;
          st.t_remaining <- st.t_remaining - done_;
          if st.t_remaining > 0 then begin
            let jitter = Rng.int st.t_rng (1 + (st.t_spec.think_time / 4)) in
            Event_queue.push queue ~time:(now + st.t_spec.think_time + jitter) i
          end
        end;
        loop ()
  in
  loop ();
  Array.to_list (Array.map finish states)
