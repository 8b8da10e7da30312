(** Multi-tenant domain manager: N devices/tenants over one IOMMU.

    Each tenant gets its own protection domain — a private IOVA
    allocator and page-table hierarchy reached through its device's
    context entry ({!Rio_iommu.Bdf} / {!Rio_iommu.Context}) — while all
    tenants contend on one {!Shared_iotlb}. The manager provides both
    sides of the paper's Figure 2 for this setting: the OS side
    ({!map} / {!unmap} / {!flush}) and the hardware side
    ({!translate}).

    Invalidation scoping decides the blast radius of a deferred-mode
    batched flush: [Global] is what Linux does (one global flush every
    [batch] unmaps — wiping every tenant's entries), [Per_domain] uses
    domain-selective invalidation so a noisy tenant's churn cannot
    flush its neighbors. *)

type invalidation = Per_domain | Global

val invalidation_name : invalidation -> string

type policy = Immediate | Deferred of { batch : int }

exception Exhausted
(** Raised by {!map_sg_exn} when a tenant's IOVA space is exhausted
    (after rolling the partial batch back). *)

exception Not_mapped
(** Raised by {!unmap_sg_exn} at the first IOVA with no live mapping. *)

type domain
(** A tenant handle. *)

type t

val create :
  iotlb_policy:Shared_iotlb.policy ->
  iotlb_capacity:int ->
  invalidation:invalidation ->
  policy:policy ->
  frames:Rio_memory.Frame_allocator.t ->
  clock:Rio_sim.Cycles.t ->
  cost:Rio_sim.Cost_model.t ->
  ?coherent_walk:bool ->
  ?rcache:bool ->
  unit ->
  t
(** [rcache] (default false) puts a Bonwick magazine cache
    ({!Rio_iova.Magazine}) in front of every tenant's IOVA allocator,
    so steady-state alloc/free recycles ranges in O(1) without touching
    the tree — the configuration the serve shards run with. *)

val add_domain :
  t -> name:string -> bdf:Rio_iommu.Bdf.t -> ?iova_limit_pfn:int -> unit -> domain
(** Create a tenant: fresh page table, fresh IOVA allocator, context
    entry installed, IOTLB slice registered. Online attach is allowed
    under the [Shared] and [Quota] IOTLB policies — a tenant can join
    while neighbors are translating (the serve daemon's churn path).
    Raises [Invalid_argument] if the bdf is already attached, or under
    [Partitioned] once traffic has started (slice geometry frozen). *)

val remove_domain : t -> domain -> unit
(** Detach the device and flush the domain's IOTLB footprint (the
    device-unplug / tenant-teardown path). *)

(** {1 Accessors} *)

val domains : t -> domain list
val domain_id : domain -> int
val domain_name : domain -> string
val bdf : domain -> Rio_iommu.Bdf.t
val rid : domain -> int
val iotlb : t -> Shared_iotlb.t

(** {1 OS side} *)

val map :
  t ->
  domain ->
  phys:Rio_memory.Addr.phys ->
  bytes:int ->
  read:bool ->
  write:bool ->
  (int, [ `Exhausted ]) result
(** Map into the tenant's own IOVA space; returns the IOVA (page offset
    preserved). *)

val unmap : t -> domain -> iova:int -> (unit, [ `Not_mapped ]) result
(** Under [Immediate], invalidates each page's IOTLB entry and releases
    the IOVA now. Under [Deferred], queues on the tenant's own deferred
    queue; when the queue reaches [batch], flushes at the configured
    {!invalidation} scope (a [Global] flush also drains every other
    tenant's queue, as the Linux batching does). *)

val map_sg :
  t ->
  domain ->
  segs:(Rio_memory.Addr.phys * int) array ->
  ?n:int ->
  iovas:int array ->
  read:bool ->
  write:bool ->
  unit ->
  (int, [ `Exhausted ]) result
(** {!map_sg_exn} with exhaustion as a result. *)

val unmap_sg :
  t -> domain -> iovas:int array -> ?n:int -> unit -> (unit, [ `Not_mapped ]) result
(** Unmap the first [n] (default all) IOVAs as one batch: one
    entry-point overhead charge, then per-IOVA teardown under the
    configured policy (a deferred queue absorbs the whole batch and
    still flushes once per [batch] unmaps). Stops at the first unknown
    IOVA. *)

val map_sg_exn :
  t ->
  domain ->
  segs:(Rio_memory.Addr.phys * int) array ->
  ?n:int ->
  iovas:int array ->
  read:bool ->
  write:bool ->
  unit ->
  int
(** Map the first [n] (default all) [(phys, bytes)] segments as one
    batch, writing each segment's IOVA into [iovas.(i)] and returning
    the count mapped. The fixed per-entry-point overhead is charged
    once for the whole batch (the scatter-gather amortization), and
    exhaustion is atomic: {!Exhausted} is raised after every segment
    mapped so far has been rolled back. Allocation-free after warm-up
    (the zero-alloc gate covers this entry point). *)

val unmap_sg_exn : t -> domain -> iovas:int array -> ?n:int -> unit -> unit
(** Batched-invalidation unmap (the paper's §3.2 amortization): tears
    down every IOVA's pages and releases the ranges in one pass, then
    issues a {e single} domain-selective flush instead of one
    invalidation command per page — one [iotlb_global_flush] for the
    burst rather than [n * iotlb_invalidate]. Until that flush the
    device can still reach the just-unmapped pages through stale IOTLB
    entries (the deferred-mode window, here bounded by one call).
    Allocation-free under every IOTLB policy. Raises {!Not_mapped} at
    the first unknown IOVA, after flushing the entries already torn
    down. *)

val flush : t -> domain -> unit
(** Drain the tenant's deferred queue now (scope per configuration). *)

val pending : t -> domain -> int
val live_mappings : t -> domain -> int

(** {1 Hardware side} *)

val translate :
  t ->
  rid:int ->
  iova:int ->
  write:bool ->
  (Rio_memory.Addr.phys, Rio_iommu.Hw.fault) result
(** One DMA: {!translate_exn} with its fault class as a result. A
    tenant's rid can only reach its own page table — domain A
    translating domain B's IOVA faults with [No_translation] and is
    recorded against A. *)

exception Translation_fault
(** Constant exception raised by {!translate_exn} for every fault
    class (the specific class is recorded in the counters:
    {!faults} / {!unknown_rid_faults}). *)

val translate_exn : t -> rid:int -> iova:int -> write:bool -> Rio_memory.Addr.phys
(** One DMA, the service's per-DMA hot path: context lookup by request
    id, shared-IOTLB lookup (charged and attributed), table walk and
    fill on a miss, permission check. Allocation-free on hits and
    misses alike: the phys result is returned unboxed and faults raise
    the constant {!Translation_fault}. *)

val faults : t -> domain -> int
(** I/O page faults raised by this tenant's device. *)

val unknown_rid_faults : t -> int
(** DMAs from request ids with no context entry. *)

val iotlb_stats : t -> domain -> Shared_iotlb.stats
