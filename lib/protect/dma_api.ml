module Addr = Rio_memory.Addr
module Coherency = Rio_memory.Coherency
module Frame_allocator = Rio_memory.Frame_allocator
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Arena = Rio_pagetable.Arena
module Iotlb = Rio_iotlb.Iotlb
module Allocator = Rio_iova.Allocator
module I_driver = Rio_domain.Driver
module Rpte = Rio_core.Rpte
module Rdevice = Rio_core.Rdevice
module R_hw = Rio_core.Hw
module R_driver = Rio_core.Driver

type config = {
  mode : Mode.t;
  rid : int;
  ring_sizes : int list;
  iotlb_capacity : int;
  iova_limit_pfn : int;
  defer_batch : int;
  total_frames : int;
  rcache : bool;
      (* magazine cache (Linux iova-rcache) in front of the IOVA
         allocator; baseline-IOMMU modes only *)
}

let default_config ~mode =
  {
    mode;
    rid = 0x0300;
    ring_sizes = [ 512; 512 ];
    iotlb_capacity = 64;
    iova_limit_pfn = 0xFFFFF;
    defer_batch = 250;
    total_frames = 200_000;
    rcache = false;
  }

type backend =
  | B_plain of { sw_iotlb : Iotlb.t option }
      (** none / HWpt (no iotlb) / SWpt (identity iotlb; payload 1 marks a
          cached page) *)
  | B_base of { driver : I_driver.t }
  | B_rio of { driver : R_driver.t; hw : R_hw.t; device : Rdevice.t }

type t = {
  mode : Mode.t;
  rid : int;
  clock : Cycles.t;
  cost : Cost_model.t;
  frames : Frame_allocator.t;
  backend : backend;
  mutable live : int;
  mutable driver_cycles : int;
  mutable log : Op_log.t option;
}

(* §5.1: HWpt/SWpt throughput trails no-IOMMU by ~10%, entirely caused by
   ~200 cycles of kernel abstraction code per packet on the core. A
   packet is two map and two unmap calls on mlx, so ~50 cycles each. *)
let passthrough_overhead = 50

let create ?(cost = Cost_model.default) config =
  let clock = Cycles.create () in
  let frames = Frame_allocator.create ~total_frames:config.total_frames in
  let backend =
    match config.mode with
    | Mode.None_ | Mode.Hw_passthrough -> B_plain { sw_iotlb = None }
    | Mode.Sw_passthrough ->
        B_plain
          { sw_iotlb = Some (Iotlb.create ~capacity:config.iotlb_capacity ~clock ~cost ()) }
    | Mode.Strict | Mode.Strict_plus | Mode.Defer | Mode.Defer_plus ->
        let coherency =
          Coherency.create ~coherent:(Mode.coherent_walk config.mode) ~cost ~clock
        in
        let table = Arena.create ~frames ~coherency ~clock ~cost in
        let iotlb = Iotlb.create ~capacity:config.iotlb_capacity ~clock ~cost () in
        let kind =
          if Mode.uses_fast_allocator config.mode then Allocator.Fast
          else Allocator.Linux
        in
        let allocator =
          Allocator.create ~kind ~limit_pfn:config.iova_limit_pfn ~clock ~cost
        in
        let rcache =
          if config.rcache then
            Some (Rio_iova.Magazine.create ~base:allocator ~clock ~cost ())
          else None
        in
        let policy =
          if Mode.is_deferred config.mode then
            I_driver.Deferred { batch = config.defer_batch }
          else I_driver.Immediate
        in
        let driver =
          I_driver.create ?rcache ~table ~allocator ~target:(I_driver.Own iotlb)
            ~rid:config.rid ~policy ~clock ~cost ()
        in
        B_base { driver }
    | Mode.Riommu_minus | Mode.Riommu ->
        let coherency =
          Coherency.create ~coherent:(Mode.coherent_walk config.mode) ~cost ~clock
        in
        let device =
          Rdevice.create ~rid:config.rid ~ring_sizes:config.ring_sizes ~frames
            ~coherency
        in
        let hw = R_hw.create ~clock ~cost in
        R_hw.attach hw device;
        let driver = R_driver.create ~device ~hw ~clock ~cost in
        B_rio { driver; hw; device }
  in
  {
    mode = config.mode;
    rid = config.rid;
    clock;
    cost;
    frames;
    backend;
    live = 0;
    driver_cycles = 0;
    log = None;
  }

let mode t = t.mode
let set_log t log = t.log <- log

let clock t = t.clock
let cost t = t.cost
let frames t = t.frames

(* Two plain projections instead of one tuple-returning [dir_perms]: the
   zero-alloc paths must not build a (bool * bool) box per call. *)
let dir_read = function
  | Rpte.To_memory -> false
  | Rpte.From_memory -> true
  | Rpte.Bidirectional -> true

let dir_write = function
  | Rpte.To_memory -> true
  | Rpte.From_memory -> false
  | Rpte.Bidirectional -> true

(* The one body per op, for all nine modes: int addresses in and out, no
   result box. The live and driver-cycle accounting and the op log
   exist here only; a log is recorded only when one is attached. *)

let map_exn t ~ring ~phys ~bytes ~dir =
  let start = Cycles.now t.clock in
  match
    match t.backend with
    | B_plain _ ->
        if t.mode <> Mode.None_ then Cycles.charge t.clock passthrough_overhead;
        Addr.to_int phys
    | B_base { driver } ->
        I_driver.map_exn driver ~phys ~bytes ~read:(dir_read dir)
          ~write:(dir_write dir)
    | B_rio { driver; _ } -> R_driver.map_exn driver ~rid:ring ~phys ~size:bytes ~dir
  with
  | addr ->
      t.live <- t.live + 1;
      t.driver_cycles <- t.driver_cycles + Cycles.since t.clock start;
      (match t.log with
      | Some log -> Op_log.record_map log ~cycles:(Cycles.now t.clock) ~ring ~addr ~bytes
      | None -> ());
      addr
  | exception e ->
      t.driver_cycles <- t.driver_cycles + Cycles.since t.clock start;
      raise e

let unmap_exn t ~iova ~end_of_burst =
  let start = Cycles.now t.clock in
  match
    match t.backend with
    | B_plain _ ->
        if t.mode <> Mode.None_ then Cycles.charge t.clock passthrough_overhead;
        (* nothing translates here, so only an unmap with nothing live
           is known to be stray *)
        if t.live = 0 then raise I_driver.Not_mapped
    | B_base { driver } -> I_driver.unmap_exn driver ~iova
    | B_rio { driver; _ } -> R_driver.unmap_exn driver iova ~end_of_burst
  with
  | () -> (
      t.live <- t.live - 1;
      t.driver_cycles <- t.driver_cycles + Cycles.since t.clock start;
      match t.log with
      | Some log -> Op_log.record_unmap log ~cycles:(Cycles.now t.clock) ~addr:iova
      | None -> ())
  | exception e ->
      t.driver_cycles <- t.driver_cycles + Cycles.since t.clock start;
      raise e

let translate t ~iova ~write =
  match t.backend with
  | B_plain { sw_iotlb = None } -> Addr.phys_of_int iova
  | B_plain { sw_iotlb = Some iotlb } ->
      (* SWpt: identity translation still exercises the IOTLB and the
         page walk on a miss (§5.1's methodology validation). *)
      let phys = Addr.phys_of_int iova in
      let vpn = Addr.pfn phys in
      if Iotlb.find iotlb ~bdf:t.rid ~vpn ~absent:0 = 0 then begin
        Cycles.charge t.clock (4 * t.cost.Cost_model.io_walk_ref);
        ignore (Iotlb.insert iotlb ~bdf:t.rid ~vpn 1 : int)
      end;
      phys
  | B_base { driver } -> I_driver.translate_exn driver ~iova ~write
  | B_rio { hw; _ } -> R_hw.rtranslate_exn hw ~bdf:t.rid ~iova ~write

(* A device access is logged with its whole address at offset 0, faults
   included; only the attached path handles the fault. *)
let translate_exn t ~iova ~write =
  match t.log with
  | None -> translate t ~iova ~write
  | Some log -> (
      match translate t ~iova ~write with
      | phys ->
          Op_log.record_access log ~cycles:(Cycles.now t.clock) ~addr:iova ~offset:0
            ~write ~ok:true;
          phys
      | exception I_driver.Translation_fault ->
          Op_log.record_access log ~cycles:(Cycles.now t.clock) ~addr:iova ~offset:0
            ~write ~ok:false;
          raise I_driver.Translation_fault)

let flush t =
  let start = Cycles.now t.clock in
  (match t.backend with
  | B_base { driver } -> I_driver.flush driver
  | B_rio { hw; device; _ } ->
      (* quiesce: drop every ring's rIOTLB entry (device reinit, §2.2) *)
      for ring = 0 to Rdevice.ring_count device - 1 do
        R_hw.invalidate hw ~bdf:t.rid ~ring
      done
  | B_plain _ -> ());
  t.driver_cycles <- t.driver_cycles + Cycles.since t.clock start

let driver_cycles t = t.driver_cycles
let reset_driver_cycles t = t.driver_cycles <- 0

let last_fault t =
  match t.backend with
  | B_plain _ -> invalid_arg "Dma_api.last_fault: pass-through translation never faults"
  | B_base { driver } -> Format.asprintf "%a" I_driver.pp_fault (I_driver.last_fault driver)
  | B_rio { hw; _ } -> Format.asprintf "%a" R_hw.pp_fault (R_hw.last_fault hw)

let map_breakdown t =
  match t.backend with
  | B_plain _ -> None
  | B_base { driver } -> Some (I_driver.map_breakdown driver)
  | B_rio { driver; _ } -> Some (R_driver.map_breakdown driver)

let unmap_breakdown t =
  match t.backend with
  | B_plain _ -> None
  | B_base { driver } -> Some (I_driver.unmap_breakdown driver)
  | B_rio { driver; _ } -> Some (R_driver.unmap_breakdown driver)

let faults t =
  match t.backend with
  | B_plain _ -> 0
  | B_base { driver } -> I_driver.faults driver
  | B_rio { hw; _ } -> R_hw.faults hw

let live_mappings t = t.live

let rcache_stats t =
  match t.backend with
  | B_base { driver } ->
      Option.map Rio_iova.Magazine.stats (I_driver.rcache driver)
  | B_plain _ | B_rio _ -> None
