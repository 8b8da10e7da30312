(** The DMA-mapping facade: one API over all nine protection modes.

    Device drivers call {!map}/{!unmap} exactly as the Linux DMA API is
    called in Figures 4 and 6; device models call {!translate} for every
    DMA access exactly as the IOMMU intercepts addresses in Figure 5.
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

type handle
(** An opaque mapped-buffer handle; encodes to the 64-bit descriptor
    address via {!addr}. *)

val create : ?cost:Rio_sim.Cost_model.t -> config -> t
val mode : t -> Mode.t
val clock : t -> Rio_sim.Cycles.t
val cost : t -> Rio_sim.Cost_model.t
val frames : t -> Rio_memory.Frame_allocator.t

(** {1 Driver side (the CPU-cycle critical path, §3.3)} *)

val map :
  t ->
  ring:int ->
  phys:Rio_memory.Addr.phys ->
  bytes:int ->
  dir:Rio_core.Rpte.dir ->
  (handle, [ `Exhausted | `Overflow ]) result

val unmap : t -> handle -> end_of_burst:bool -> (unit, [ `Not_mapped ]) result
(** [end_of_burst] is meaningful to the rIOMMU modes only; others ignore
    it. *)

val map_exn :
  t ->
  phys:Rio_memory.Addr.phys ->
  bytes:int ->
  dir:Rio_core.Rpte.dir ->
  int
(** Zero-allocation map for the baseline-IOMMU modes: returns the raw
    IOVA (no handle box), skips the op log, and allocates no heap words
    after warm-up. It is the body {!map} runs for those modes. Raises
    {!Rio_domain.Driver.Exhausted} when the IOVA space is full and
    [Invalid_argument] under non-baseline modes. The cycles spent count
    in {!driver_cycles} whether or not the map succeeds. *)

val unmap_exn : t -> iova:int -> unit
(** Zero-allocation unmap of an IOVA returned by {!map_exn} (or
    {!map}+{!addr}); the body {!unmap} runs for the baseline modes.
    Raises {!Rio_domain.Driver.Not_mapped} and, under non-baseline
    modes, [Invalid_argument]. Skips the op log. The cycles spent count
    in {!driver_cycles} either way. *)

val map_sg :
  t ->
  ring:int ->
  segments:(Rio_memory.Addr.phys * int) list ->
  dir:Rio_core.Rpte.dir ->
  (handle list, [ `Exhausted | `Overflow ]) result
(** Map a scatter-gather list (one handle per segment, as NIC/NVMe
    descriptors carry K addresses, §4). All-or-nothing: on failure the
    segments already mapped are unwound. *)

val unmap_sg : t -> handle list -> end_of_burst:bool -> (unit, [ `Not_mapped ]) result
(** Unmap a scatter-gather list; only the last segment carries
    [end_of_burst]. *)

val flush : t -> unit
(** Quiesce translation state: drain a deferred-mode invalidation queue,
    or (rIOMMU modes) invalidate every ring's rIOTLB entry, as a device
    reinitialization does. No-op for unprotected modes. *)

val addr : t -> handle -> int64
(** The address the driver writes into the DMA descriptor. *)

(** {1 Device side} *)

val translate :
  t -> addr:int64 -> offset:int -> write:bool -> (Rio_memory.Addr.phys, string) result
(** Resolve a descriptor address (+ byte offset) to physical memory the
    way the (r)IOMMU would; the error string names the fault. Charges
    device-side costs (IOTLB lookups, walks) but - per the validated
    model of §3.3 - these do not slow the core. *)

val translate_exn : t -> iova:int -> write:bool -> Rio_memory.Addr.phys
(** Zero-allocation {!translate} for the baseline-IOMMU modes: takes the
    raw IOVA (no int64 descriptor encoding), skips the op log, and
    allocates no heap words on the IOTLB-hit path. It and {!translate}
    run the same body for those modes, the driver's
    {!Rio_domain.Driver.translate_exn}. Faults raise the constant
    {!Rio_domain.Driver.Translation_fault}; non-baseline modes raise
    [Invalid_argument]. *)

(** {1 Logging} *)

val set_log : t -> Op_log.t option -> unit
(** Attach (or detach) a DMA operation log: subsequent maps, unmaps and
    device-side translations are recorded with cycle timestamps - the
    trace-capture methodology of §5.4. *)

(** {1 Introspection for experiments and tests} *)

val map_breakdown : t -> Rio_sim.Breakdown.t option
val unmap_breakdown : t -> Rio_sim.Breakdown.t option
(** Per-component cost accounting (Table 1); [None] for unprotected
    modes. *)

val driver_cycles : t -> int
(** Total CPU cycles spent inside {!map}/{!unmap}/{!flush} - the
    protection cost the core pays, which per the validated §3.3 model is
    the {e only} thing that affects throughput. Device-side translation
    charges are excluded. *)

val reset_driver_cycles : t -> unit
(** Zero the {!driver_cycles} counter (after warmup). *)

val faults : t -> int
val live_mappings : t -> int
(** Currently mapped handles (as seen by this layer). *)

val rcache_stats : t -> Rio_iova.Magazine.stats option
(** Magazine-cache counters when [rcache] was enabled; [None]
    otherwise. *)
