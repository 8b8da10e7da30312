(** The DMA-mapping facade: one API over all nine protection modes.

    Device drivers call {!map_exn}/{!unmap_exn} once per buffer, exactly
    as the Linux DMA API is called in Figures 4 and 6; device models call
    {!translate_exn} once per DMA access, exactly as the IOMMU intercepts
    addresses in Figure 5. Each op is one raising call; its caller
    catches the outcomes it expects.
    Which machinery runs underneath - nothing, a pass-through, the
    baseline IOMMU in one of its four modes, or the rIOMMU in either
    coherency configuration - is selected by the {!Mode.t} in the
    config, so workloads and experiments compare modes on identical code
    paths. *)

type config = {
  mode : Mode.t;
  rid : int;  (** the protected device's request identifier *)
  ring_sizes : int list;
      (** rIOMMU flat-table sizes, one per device ring; ring ids index
          this list. Ignored by non-rIOMMU modes (which pool all rings
          into one IOVA space, as Linux does). *)
  iotlb_capacity : int;  (** baseline IOTLB entries (default 64) *)
  iova_limit_pfn : int;  (** top of the baseline IOVA space *)
  defer_batch : int;  (** deferred-mode flush threshold (Linux: 250) *)
  total_frames : int;  (** physical memory size *)
  rcache : bool;
      (** put a {!Rio_iova.Magazine} cache (the Linux iova rcache) in
          front of the IOVA allocator; baseline-IOMMU modes only *)
}

val default_config : mode:Mode.t -> config
(** rid 0x0300, two rings of 512, 64 IOTLB entries, 1M-page IOVA space,
    batch 250, 200K frames, rcache off. *)

type t

val create : ?cost:Rio_sim.Cost_model.t -> config -> t
val mode : t -> Mode.t
val clock : t -> Rio_sim.Cycles.t
val cost : t -> Rio_sim.Cost_model.t
val frames : t -> Rio_memory.Frame_allocator.t

(** {1 Driver side (the CPU-cycle critical path, §3.3)}

    Each op has one body for all nine modes: it takes and returns plain
    [int] addresses and, with no log attached ({!set_log}), allocates no
    heap words after warm-up (the deferred modes' release queue aside).
    The address a map returns is the one the driver writes into its DMA
    descriptor: the physical address (none and the pass-throughs), the
    IOVA (baseline IOMMU) or the rIOVA ({!Rio_core.Riova}). The cycles
    an op spends count in {!driver_cycles} whether or not it
    succeeds. *)

val map_exn :
  t ->
  ring:int ->
  phys:Rio_memory.Addr.phys ->
  bytes:int ->
  dir:Rio_core.Rpte.dir ->
  int
(** Map a buffer into [ring] (rIOMMU modes; the others pool all rings
    into one IOVA space). Raises {!Rio_domain.Driver.Exhausted} when the
    baseline IOVA space is full and {!Rio_core.Driver.Overflow} when the
    rIOMMU ring is. *)

val unmap_exn : t -> iova:int -> end_of_burst:bool -> unit
(** Unmap an address {!map_exn} returned. [end_of_burst] is meaningful
    to the rIOMMU modes only; others ignore it. Raises
    {!Rio_iommu.Fault.Not_mapped}, the one exception both engines
    raise, for an address with no live mapping. None and the
    pass-throughs keep no mappings, only a count of live buffers: they
    raise it when nothing is live, but cannot tell a stray unmap from
    a real one while other buffers are. *)

val flush : t -> unit
(** Quiesce translation state: drain a deferred-mode invalidation queue,
    or (rIOMMU modes) invalidate every ring's rIOTLB entry, as a device
    reinitialization does. No-op for unprotected modes. *)

(** {1 Device side} *)

val translate_exn : t -> iova:int -> write:bool -> Rio_memory.Addr.phys
(** Resolve a device address the way the (r)IOMMU would: a descriptor
    address plus a byte offset, already added. Under the rIOMMU modes
    the caller keeps the sum inside the rIOVA's 30-bit offset field: a
    carry would name another ring entry, and the DMA engine
    ([Rio_device.Dma]) refuses such a transfer before translating.
    Charges device-side costs (IOTLB lookups, walks) but - per the
    validated model of §3.3 - these do not slow the core. Every fault
    raises the constant {!Rio_iommu.Fault.Translation_fault}, which
    both engines raise; allocation-free on hits and misses alike when
    no log is attached. *)

val last_fault : t -> string
(** The name of the fault class the last {!translate_exn} raised
    ("no translation", "invalid rPTE", "offset out of range", ...).
    Meaningful only right after a [Translation_fault]; the unprotected
    modes never fault and raise [Invalid_argument]. *)

(** {1 Logging} *)

val set_log : t -> Op_log.t option -> unit
(** Attach (or detach) a DMA operation log: subsequent successful maps
    and unmaps, and every device-side translation (faults included, as
    the whole device address at offset 0), are recorded with cycle
    timestamps - the trace-capture methodology of §5.4. *)

(** {1 Introspection for experiments and tests} *)

val map_breakdown : t -> Rio_sim.Breakdown.t option
val unmap_breakdown : t -> Rio_sim.Breakdown.t option
(** Per-component cost accounting (Table 1); [None] for unprotected
    modes. *)

val driver_cycles : t -> int
(** Total CPU cycles spent inside {!map_exn}/{!unmap_exn}/{!flush} - the
    protection cost the core pays, which per the validated §3.3 model is
    the {e only} thing that affects throughput. Device-side translation
    charges are excluded. *)

val reset_driver_cycles : t -> unit
(** Zero the {!driver_cycles} counter (after warmup). *)

val faults : t -> int
val live_mappings : t -> int
(** Currently mapped buffers (as seen by this layer). *)

val rcache_stats : t -> Rio_iova.Magazine.stats option
(** Magazine-cache counters when [rcache] was enabled; [None]
    otherwise. *)
