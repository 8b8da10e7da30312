module Addr = Rio_memory.Addr
module Coherency = Rio_memory.Coherency
module Frame_allocator = Rio_memory.Frame_allocator
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Arena = Rio_pagetable.Arena
module Iotlb = Rio_iotlb.Iotlb
module Allocator = Rio_iova.Allocator
module I_context = Rio_iommu.Context
module I_hw = Rio_iommu.Hw
module I_driver = Rio_iommu.Driver
module Rpte = Rio_core.Rpte
module Riova = Rio_core.Riova
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

type handle =
  | H_phys of { phys : Addr.phys }
  | H_base of { iova : int }
  | H_rio of { iova : Riova.t }

type backend =
  | B_plain of { sw_iotlb : bool Iotlb.t option }
      (** none / HWpt (no iotlb) / SWpt (identity iotlb) *)
  | B_base of { driver : I_driver.t; hw : I_hw.t }
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
        let domain = I_context.Domain.make ~id:1 ~table in
        let context = I_context.create () in
        I_context.attach context (Rio_iommu.Bdf.of_rid config.rid) domain;
        let iotlb = Iotlb.create ~capacity:config.iotlb_capacity ~clock ~cost () in
        let hw = I_hw.create ~context ~iotlb ~clock ~cost in
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
          I_driver.create ?rcache ~domain ~allocator ~iotlb ~rid:config.rid
            ~policy ~clock ~cost ()
        in
        B_base { driver; hw }
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
let log_op t op =
  match t.log with
  | Some l -> Op_log.record l ~cycles:(Cycles.now t.clock) op
  | None -> ()

let clock t = t.clock
let cost t = t.cost
let frames t = t.frames

let addr t handle =
  match (t.backend, handle) with
  | B_plain _, H_phys { phys } -> Int64.of_int (Addr.to_int phys)
  | B_base _, H_base { iova } -> Int64.of_int iova
  | B_rio _, H_rio { iova } -> Riova.encode iova
  | _ -> invalid_arg "Dma_api.addr: handle from another mode"

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

let map t ~ring ~phys ~bytes ~dir =
  let start = Cycles.now t.clock in
  let result =
    match t.backend with
    | B_plain _ ->
        if t.mode <> Mode.None_ then
          Cycles.charge t.clock passthrough_overhead;
        Ok (H_phys { phys })
    | B_base { driver; _ } ->
        (match
           I_driver.map driver ~phys ~bytes ~read:(dir_read dir)
             ~write:(dir_write dir)
         with
        | Ok iova -> Ok (H_base { iova })
        | Error `Exhausted -> Error `Exhausted)
    | B_rio { driver; _ } -> (
        match R_driver.map driver ~rid:ring ~phys ~size:bytes ~dir with
        | Ok iova -> Ok (H_rio { iova })
        | Error `Overflow -> Error `Overflow)
  in
  (match result with
  | Ok h ->
      t.live <- t.live + 1;
      (match t.log with
      | None -> ()
      | Some _ -> log_op t (Op_log.Map { ring; addr = addr t h; bytes }))
  | Error _ -> ());
  t.driver_cycles <- t.driver_cycles + Cycles.since t.clock start;
  result

(* Zero-alloc primary for the baseline-IOMMU modes: raw IOVA in, raw IOVA
   out, no handle box, no result box, no op-log record. The op log never
   sees these calls. *)
let map_exn t ~phys ~bytes ~dir =
  match t.backend with
  | B_base { driver; _ } ->
      let start = Cycles.now t.clock in
      let iova =
        I_driver.map_exn driver ~phys ~bytes ~read:(dir_read dir)
          ~write:(dir_write dir)
      in
      t.live <- t.live + 1;
      t.driver_cycles <- t.driver_cycles + Cycles.since t.clock start;
      iova
  | B_plain _ | B_rio _ ->
      invalid_arg "Dma_api.map_exn: baseline-IOMMU modes only"

let unmap t handle ~end_of_burst =
  let start = Cycles.now t.clock in
  let result =
    match (t.backend, handle) with
    | B_plain _, H_phys _ ->
        if t.mode <> Mode.None_ then
          Cycles.charge t.clock passthrough_overhead;
        Ok ()
    | B_base { driver; _ }, H_base { iova } -> I_driver.unmap driver ~iova
    | B_rio { driver; _ }, H_rio { iova } -> R_driver.unmap driver iova ~end_of_burst
    | _ -> invalid_arg "Dma_api.unmap: handle from another mode"
  in
  (match result with
  | Ok () ->
      t.live <- t.live - 1;
      (match t.log with
      | None -> ()
      | Some _ -> log_op t (Op_log.Unmap { addr = addr t handle }))
  | Error _ -> ());
  t.driver_cycles <- t.driver_cycles + Cycles.since t.clock start;
  result

let unmap_exn t ~iova =
  match t.backend with
  | B_base { driver; _ } ->
      let start = Cycles.now t.clock in
      I_driver.unmap_exn driver ~iova;
      t.live <- t.live - 1;
      t.driver_cycles <- t.driver_cycles + Cycles.since t.clock start
  | B_plain _ | B_rio _ ->
      invalid_arg "Dma_api.unmap_exn: baseline-IOMMU modes only"

let map_sg t ~ring ~segments ~dir =
  if segments = [] then invalid_arg "Dma_api.map_sg: empty list";
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (phys, bytes) :: rest -> (
        match map t ~ring ~phys ~bytes ~dir with
        | Ok h -> go (h :: acc) rest
        | Error e ->
            (* unwind the prefix so a failed SG map leaves nothing live *)
            List.iteri
              (fun i h ->
                match unmap t h ~end_of_burst:(i = List.length acc - 1) with
                | Ok () -> ()
                | Error `Not_mapped -> assert false)
              acc;
            Error e)
  in
  go [] segments

let unmap_sg t handles ~end_of_burst =
  let n = List.length handles in
  if n = 0 then invalid_arg "Dma_api.unmap_sg: empty list";
  let rec go i = function
    | [] -> Ok ()
    | h :: rest -> (
        match unmap t h ~end_of_burst:(end_of_burst && i = n - 1) with
        | Ok () -> go (i + 1) rest
        | Error `Not_mapped -> Error `Not_mapped)
  in
  go 0 handles

let flush t =
  let start = Cycles.now t.clock in
  (match t.backend with
  | B_base { driver; _ } -> I_driver.flush driver
  | B_rio { hw; device; _ } ->
      (* quiesce: drop every ring's rIOTLB entry (device reinit, §2.2) *)
      for ring = 0 to Rdevice.ring_count device - 1 do
        Rio_core.Riotlb.invalidate (R_hw.riotlb hw) ~bdf:t.rid ~rid:ring
      done
  | B_plain _ -> ());
  t.driver_cycles <- t.driver_cycles + Cycles.since t.clock start

let driver_cycles t = t.driver_cycles
let reset_driver_cycles t = t.driver_cycles <- 0

let translate t ~addr:target ~offset ~write =
  let result =
    match t.backend with
  | B_plain { sw_iotlb } -> (
      let phys = Addr.phys_of_int (Int64.to_int target + offset) in
      match sw_iotlb with
      | None -> Ok phys
      | Some iotlb ->
          (* SWpt: identity translation still exercises the IOTLB and the
             page walk on a miss (§5.1's methodology validation). *)
          let vpn = Addr.pfn phys in
          if not (Iotlb.find iotlb ~bdf:t.rid ~vpn ~absent:false) then begin
            Cycles.charge t.clock (4 * t.cost.Cost_model.io_walk_ref);
            ignore (Iotlb.insert iotlb ~bdf:t.rid ~vpn true : int)
          end;
          Ok phys)
  | B_base { hw; _ } -> (
      match
        I_hw.translate hw ~rid:t.rid ~iova:(Int64.to_int target + offset) ~write
      with
      | Ok phys -> Ok phys
      | Error f -> Error (Format.asprintf "%a" I_hw.pp_fault f))
  | B_rio { hw; _ } -> (
      let iova = Riova.decode target in
      let iova = Riova.with_offset iova (iova.Riova.offset + offset) in
      match R_hw.rtranslate hw ~bdf:t.rid ~iova ~write with
      | Ok phys -> Ok phys
      | Error f -> Error (Format.asprintf "%a" R_hw.pp_fault f))
  in
  (match t.log with
  | None -> ()
  | Some _ ->
      log_op t
        (Op_log.Access { addr = target; offset; write; ok = Result.is_ok result }));
  result

(* Zero-alloc device-side twin of [translate] for the baseline-IOMMU
   modes: raw IOVA in, phys out, no result/error boxing, no op-log
   record. Faults raise the hardware layer's constant exception. *)
let translate_exn t ~iova ~write =
  match t.backend with
  | B_base { hw; _ } -> I_hw.translate_exn hw ~rid:t.rid ~iova ~write
  | B_plain _ | B_rio _ ->
      invalid_arg "Dma_api.translate_exn: baseline-IOMMU modes only"

let map_breakdown t =
  match t.backend with
  | B_plain _ -> None
  | B_base { driver; _ } -> Some (I_driver.map_breakdown driver)
  | B_rio { driver; _ } -> Some (R_driver.map_breakdown driver)

let unmap_breakdown t =
  match t.backend with
  | B_plain _ -> None
  | B_base { driver; _ } -> Some (I_driver.unmap_breakdown driver)
  | B_rio { driver; _ } -> Some (R_driver.unmap_breakdown driver)

let faults t =
  match t.backend with
  | B_plain _ -> 0
  | B_base { hw; _ } -> I_hw.faults hw
  | B_rio { hw; _ } -> R_hw.faults hw

let live_mappings t = t.live

let pending_invalidations t =
  match t.backend with
  | B_base { driver; _ } -> I_driver.pending driver
  | B_plain _ | B_rio _ -> 0

let rcache_stats t =
  match t.backend with
  | B_base { driver; _ } ->
      Option.map Rio_iova.Magazine.stats (I_driver.rcache driver)
  | B_plain _ | B_rio _ -> None
