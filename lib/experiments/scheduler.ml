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

(* Per-tenant mutable run state; the [transact] closure runs one burst
   and returns I/Os completed, with all cycle costs charged to the
   shared clock (the caller attributes them via Cycles.measure). *)
type tenant_state = {
  t_spec : tenant_spec;
  t_rng : Rng.t;
  transact : unit -> int;
  mutable t_remaining : int;
  mutable t_ios : int;
  mutable t_cycles : int;
  (* riommu-mode bookkeeping (the baseline modes read Manager stats) *)
  mutable t_hits : int;
  mutable t_misses : int;
  finish : unit -> tenant_result;
}

let bdf_of_index i = Bdf.make ~bus:(1 + (i / 8)) ~device:(i mod 8) ~func:0

(* {1 Baseline modes: strict / defer through the shared IOTLB} *)

let baseline_tenant mgr frames rng i spec =
  let dom = Manager.add_domain mgr ~name:spec.name ~bdf:(bdf_of_index i) () in
  let rid = Manager.rid dom and driver = Manager.driver dom in
  (* Persistent working set: mapped once, touched by the device on every
     I/O (descriptor rings, SGL pages, ibverbs-style registrations). *)
  let pool =
    Array.init spec.pool_pages (fun _ ->
        let frame = Frame_allocator.alloc_exn frames in
        match
          Driver.map driver ~phys:frame ~bytes:Addr.page_size ~read:true
            ~write:true
        with
        | Ok iova -> iova
        | Error `Exhausted -> failwith "Scheduler: pool map exhausted")
  in
  let translate iova =
    ignore (Manager.translate mgr ~rid ~iova ~write:true)
  in
  let rng = Rng.split rng in
  let transact () =
    let done_ = ref 0 in
    for _ = 1 to spec.burst do
      let frame = Frame_allocator.alloc_exn frames in
      (match
         Driver.map driver ~phys:frame ~bytes:spec.io_bytes ~read:true
           ~write:true
       with
      | Ok iova ->
          let npages = (spec.io_bytes + Addr.page_size - 1) / Addr.page_size in
          for p = 0 to npages - 1 do
            translate (iova + (p lsl Addr.page_shift))
          done;
          for _ = 1 to spec.touches do
            translate pool.(Rng.int rng spec.pool_pages)
          done;
          ignore (Driver.unmap driver ~iova)
      | Error `Exhausted -> ());
      Frame_allocator.free frames frame;
      incr done_
    done;
    !done_
  in
  (dom, rng, transact)

(* {1 rIOMMU mode: per-ring rIOTLB, no shared structure}

   Each tenant drives its own rRINGs. Map is an rPTE store plus the
   paper's sync_mem (barrier + cacheline flush on a non-coherent walk,
   barrier only on a coherent one); translation hits the ring's
   prefetched rIOTLB entry except on first touch; unmap marks the rPTE
   invalid and issues one explicit rIOTLB invalidation per burst end
   (Figure 10's amortization). *)

let riommu_tenant cfg riotlb clock cost rng i spec =
  let coherent = Mode.coherent_walk cfg.mode in
  let bdf = Bdf.to_rid (bdf_of_index i) in
  let rings = 2 in
  let state = ref None in
  let sync_cost =
    if coherent then cost.Cost_model.barrier
    else
      cost.Cost_model.barrier + cost.Cost_model.cacheline_flush
      + cost.Cost_model.barrier
  in
  let access st ring =
    match Riotlb.find riotlb ~bdf ~rid:ring with
    | Some _ -> st.t_hits <- st.t_hits + 1
    | None ->
        (* flat-table walk: one DRAM reference, then the entry (and its
           prefetched successor) is resident *)
        st.t_misses <- st.t_misses + 1;
        Cycles.charge clock cost.Cost_model.io_walk_ref;
        Riotlb.insert riotlb ~bdf ~rid:ring
          {
            Riotlb.rentry = 0;
            rpte =
              Rpte.make ~phys_addr:(Addr.of_pfn 1) ~size:Addr.page_size
                ~dir:Rpte.Bidirectional;
            next = Some Rpte.invalid;
          }
  in
  let rng = Rng.split rng in
  let transact () =
    let st = Option.get !state in
    let done_ = ref 0 in
    for io = 1 to spec.burst do
      ignore io;
      (* map: write the rPTE in the flat rring, then sync it *)
      Cycles.charge clock (cost.Cost_model.mem_ref_cached + sync_cost);
      let npages = (spec.io_bytes + Addr.page_size - 1) / Addr.page_size in
      let accesses = npages + spec.touches in
      for a = 1 to accesses do
        ignore a;
        access st (Rng.int rng rings)
      done;
      (* unmap: invalidate the rPTE in place (cheap store) *)
      Cycles.charge clock cost.Cost_model.mem_ref_cached;
      incr done_
    done;
    (* end of burst: one explicit invalidation closes the window *)
    Riotlb.invalidate riotlb ~bdf ~rid:0;
    !done_
  in
  (state, rng, transact)

let run cfg specs =
  if specs = [] then invalid_arg "Scheduler.run: no tenants";
  let is_riommu = Mode.is_riommu cfg.mode in
  (match cfg.mode with
  | Mode.None_ | Mode.Hw_passthrough | Mode.Sw_passthrough ->
      invalid_arg "Scheduler.run: mode has no protection path"
  | _ -> ());
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:400_000 in
  let root_rng = Rng.create ~seed:cfg.seed in
  let states =
    if is_riommu then
      let riotlb = Riotlb.create ~clock ~cost in
      List.mapi
        (fun i spec ->
          let state_ref, rng, transact =
            riommu_tenant cfg riotlb clock cost root_rng i spec
          in
          let rec st =
            {
              t_spec = spec;
              t_rng = rng;
              transact;
              t_remaining = cfg.ios_per_tenant;
              t_ios = 0;
              t_cycles = 0;
              t_hits = 0;
              t_misses = 0;
              finish =
                (fun () ->
                  let lookups = st.t_hits + st.t_misses in
                  {
                    spec;
                    ios = st.t_ios;
                    cycles = st.t_cycles;
                    ops_per_mcycle =
                      (if st.t_cycles = 0 then 0.
                       else 1e6 *. float_of_int st.t_ios /. float_of_int st.t_cycles);
                    cycles_per_io =
                      (if st.t_ios = 0 then 0.
                       else float_of_int st.t_cycles /. float_of_int st.t_ios);
                    hits = st.t_hits;
                    misses = st.t_misses;
                    miss_rate =
                      (if lookups = 0 then 0.
                       else float_of_int st.t_misses /. float_of_int lookups);
                    evictions_by_other = 0;
                    faults = 0;
                  });
            }
          in
          state_ref := Some st;
          st)
        specs
    else begin
      let policy =
        if Mode.is_deferred cfg.mode then Driver.Deferred { batch = 250 }
        else Driver.Immediate
      in
      let mgr =
        Manager.create ~iotlb_policy:cfg.policy ~iotlb_capacity:cfg.iotlb_capacity
          ~invalidation:cfg.invalidation ~policy ~frames ~clock ~cost
          ~coherent_walk:false ()
      in
      List.mapi
        (fun i spec ->
          let dom, rng, transact = baseline_tenant mgr frames root_rng i spec in
          let rec st =
            {
              t_spec = spec;
              t_rng = rng;
              transact;
              t_remaining = cfg.ios_per_tenant;
              t_ios = 0;
              t_cycles = 0;
              t_hits = 0;
              t_misses = 0;
              finish =
                (fun () ->
                  let s = Manager.iotlb_stats mgr dom in
                  let lookups = s.Shared_iotlb.hits + s.Shared_iotlb.misses in
                  {
                    spec;
                    ios = st.t_ios;
                    cycles = st.t_cycles;
                    ops_per_mcycle =
                      (if st.t_cycles = 0 then 0.
                       else 1e6 *. float_of_int st.t_ios /. float_of_int st.t_cycles);
                    cycles_per_io =
                      (if st.t_ios = 0 then 0.
                       else float_of_int st.t_cycles /. float_of_int st.t_ios);
                    hits = s.Shared_iotlb.hits;
                    misses = s.Shared_iotlb.misses;
                    miss_rate =
                      (if lookups = 0 then 0.
                       else float_of_int s.Shared_iotlb.misses /. float_of_int lookups);
                    evictions_by_other = s.Shared_iotlb.evictions_by_other;
                    faults = Manager.faults mgr dom;
                  });
            }
          in
          st)
        specs
    end
  in
  let states = Array.of_list states in
  let queue : int Event_queue.t = Event_queue.create () in
  (* stagger the first submissions so same-time ties only occur when
     think times genuinely collide *)
  Array.iteri (fun i _ -> Event_queue.push queue ~time:i i) states;
  let rec loop () =
    match Event_queue.pop queue with
    | None -> ()
    | Some (now, i) ->
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
  Array.to_list (Array.map (fun st -> st.finish ()) states)
