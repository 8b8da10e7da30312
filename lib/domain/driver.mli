(** The baseline IOMMU for one domain: the OS-side map and unmap
    (Figures 4 and 6) and the hardware-side translate (Figure 5).

    This is the one per-domain engine. [Rio_protect.Dma_api] runs one
    for the paper experiments (Table 1, Figure 7, the ablations, the
    device models); {!Manager} runs one per tenant for the interference
    experiment and the translation service.

    [map_exn] allocates an IOVA range, installs the translations in the
    device's page-table hierarchy, and returns the I/O virtual address
    the device driver should put in its DMA descriptor. [unmap_exn]
    removes the translations, invalidates the IOTLB, and releases the
    IOVA. Each op is one raising call; a failure is a constant
    exception, shared with the rIOMMU engine ({!Rio_iommu.Fault}).

    Two axes give the paper's four baseline protection modes:
    - allocator: {!Rio_iova.Allocator.kind} [Linux] (strict / defer) or
      [Fast] (strict+ / defer+);
    - invalidation: {!policy} [Immediate] (strict variants) or
      [Deferred] (defer variants: queue unmapped IOVAs and flush once
      the queue reaches the batch size, 250 in Linux).

    Deferred invalidation trades safety for performance: until the flush,
    the device can still reach the unmapped - and possibly reused -
    pages through stale IOTLB entries. This window is real in the model
    and exercised by the tests.

    Every phase of every map/unmap call is attributed to a
    {!Rio_sim.Breakdown} component, which is how Table 1 is
    regenerated.

    {!translate_exn} intercepts every DMA address: IOTLB lookup, table
    walk on a miss (filling the IOTLB), then permission and presence
    checks. DMAs are not restartable (§2.2): a failed walk or permission
    violation is an I/O page fault, which in practice means the OS
    reinitializes the device. *)

type policy = Immediate | Deferred of { batch : int }

exception Exhausted
(** Raised by {!map_exn} and {!map_sg_exn} when the IOVA space, or the
    frame pool the page table draws its nodes from, is exhausted. *)

exception Not_mapped
(** Raised by {!unmap_exn} and {!unmap_sg_exn} for an IOVA with no live
    mapping: an alias of {!Rio_iommu.Fault.Not_mapped}. *)

type t

type group
(** A global flush group: the drivers whose IOTLB entries one global
    flush wipes, so whose deferred queues it drains. *)

val group : Shared_iotlb.t -> group

(** Where this driver's invalidations land. *)
type target =
  | Own of Rio_iotlb.Iotlb.t
      (** a private IOTLB: per-page {!Rio_iotlb.Iotlb.invalidate}; a
          deferred flush is {!Rio_iotlb.Iotlb.flush_all} *)
  | Domain of Shared_iotlb.t * int
      (** domain [id] of a shared IOTLB: per-page
          {!Shared_iotlb.invalidate}; a deferred flush is
          {!Shared_iotlb.flush_domain} *)
  | Global of group * int
      (** domain [id] of the group's shared IOTLB: per-page
          {!Shared_iotlb.invalidate}; a deferred flush is
          {!Shared_iotlb.flush_all} and then drains every member's
          queue, newest member first (the Linux batching) *)

val create :
  ?rcache:Rio_iova.Magazine.t ->
  table:Rio_pagetable.Arena.t ->
  allocator:Rio_iova.Allocator.t ->
  target:target ->
  rid:int ->
  policy:policy ->
  clock:Rio_sim.Cycles.t ->
  cost:Rio_sim.Cost_model.t ->
  unit ->
  t
(** [table] is the domain's page-table hierarchy, which the device
    reaches through [rid]. [rcache] puts a {!Rio_iova.Magazine} cache
    in front of [allocator]:
    map allocations and unmap releases go through the magazine layer
    (the Linux iova-rcache mitigation for the Table 1 pathology). A
    [Global] target joins its group. *)

val leave : t -> unit
(** Leave the global flush group (tenant detach); no-op for the other
    targets. *)

val map_exn :
  t -> phys:Rio_memory.Addr.phys -> bytes:int -> read:bool -> write:bool -> int
(** Map the physical buffer [\[phys, phys+bytes)] and return its IOVA.
    The buffer may start at any page offset and span several pages; the
    returned IOVA preserves the page offset (as the Linux DMA API does).
    [read]/[write] are the permitted DMA directions.

    This is the zero-allocation primary: after warm-up it allocates no
    words on the OCaml heap. Raises {!Exhausted} when no IOVA range of
    the required size is free, or when the frame pool runs dry
    part-way; either way no page stays mapped and no IOVA range stays
    allocated (page-table nodes carved on the way stay, as after an
    unmap). *)

val unmap_exn : t -> iova:int -> unit
(** Tear down the mapping that {!map_exn} returned. Order per Figure 6:
    page-table removal, IOTLB invalidation, IOVA release. Zero-alloc
    under [Immediate]; deferred modes queue the pending release (which
    allocates) and flush at the {!target}'s scope once the queue reaches
    [batch]. Raises {!Not_mapped}. *)

(** {1 Scatter-gather batches}

    One driver entry point amortized over every segment: the fixed
    bookkeeping (call, locking, marshalling: Table 1's "other" row) is
    charged and counted once per batch instead of once per segment. *)

val map_sg_exn :
  t ->
  phys:Rio_memory.Addr.phys array ->
  bytes:int array ->
  ?n:int ->
  iovas:int array ->
  read:bool ->
  write:bool ->
  unit ->
  int
(** Map the first [n] (default all of [phys]) segments as one batch:
    segment [i] is [bytes.(i)] bytes at [phys.(i)]. Writes each
    segment's IOVA into [iovas.(i)] and returns the count mapped.
    Exhaustion is atomic: {!Exhausted} is raised after every segment
    mapped so far has been rolled back (no invalidation: the device
    never saw them). Allocation-free after warm-up. *)

(** How {!unmap_sg_exn} closes the batch's stale IOTLB windows. *)
type sg_flush =
  | Per_iova
      (** each IOVA as {!unmap_exn} would: per-page invalidation under
          [Immediate], the deferred queue under [Deferred] *)
  | Once
      (** the paper's §3.2 amortization: tear down and release every
          IOVA, then issue a {e single} flush of this driver's entries
          (domain-selective on a shared IOTLB, global on a private one)
          instead of one invalidation command per page. Until that flush
          the device can still reach the just-unmapped pages through
          stale entries: the deferred-mode window, here bounded by one
          call. Ignores the {!policy}. *)

val unmap_sg_exn : t -> iovas:int array -> ?n:int -> flush:sg_flush -> unit -> unit
(** Unmap the first [n] (default all) IOVAs as one batch. Raises
    {!Not_mapped} at the first unknown IOVA; the IOVAs before it stay
    unmapped (under [Once], after the flush that closes their
    windows). Allocation-free under [Once], and under [Per_iova] with
    [Immediate]. *)

val flush : t -> unit
(** Force a deferred-mode flush now (e.g. on device quiesce); no-op
    when nothing is queued. *)

val pending : t -> int
(** Unmapped-but-not-yet-flushed IOVAs (deferred modes only). *)

val map_breakdown : t -> Rio_sim.Breakdown.t
val unmap_breakdown : t -> Rio_sim.Breakdown.t
val live_mappings : t -> int

val rcache : t -> Rio_iova.Magazine.t option
(** The magazine cache, when one was configured. *)

(** {1 Translation (the hardware side)} *)

type fault =
  | No_translation  (** no valid mapping for the IOVA *)
  | Not_permitted  (** mapping exists but forbids this DMA direction *)

val pp_fault : Format.formatter -> fault -> unit

exception Translation_fault
(** Raised by {!translate_exn} for every fault class: an alias of
    {!Rio_iommu.Fault.Translation_fault}. {!last_fault} names the
    class. *)

val translate_exn : t -> iova:int -> write:bool -> Rio_memory.Addr.phys
(** One DMA from this driver's device: IOTLB lookup at the {!target}
    (payloads are packed PTE immediates), table walk and fill on a miss,
    permission check. An [iova] outside the 48-bit IOVA space faults as
    [No_translation]. [write] is the DMA direction seen from memory (a
    device write into memory needs write permission). Allocation-free
    on hits and misses alike: the phys result is returned unboxed, and
    every fault bumps {!faults} and raises {!Translation_fault}. *)

val last_fault : t -> fault
(** The class of the last fault {!translate_exn} raised. *)

val faults : t -> int
(** I/O page faults raised by this driver's device. *)
