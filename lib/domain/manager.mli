(** Multi-tenant domain manager: N devices/tenants over one IOMMU.

    The manager keeps tenancy only: the request-id table, attach and
    detach, and the shared-IOTLB policy. Each tenant gets its own
    protection domain — a private IOVA allocator and page-table
    hierarchy reached through its device's request id
    ({!Rio_iommu.Bdf}) — and its own {!Driver}, the same map, unmap and
    translate engine the paper experiments run, so a tenant's per-op
    cycles are Table 1's by construction. All tenants contend on one
    {!Shared_iotlb}. The OS side of the paper's Figure 2 is {!Driver}
    on {!driver}; the hardware side is {!translate_exn}: the rid lookup,
    then the tenant's {!Driver.translate_exn}.

    Invalidation scoping decides the blast radius of a deferred-mode
    batched flush: [Global] is what Linux does (one global flush every
    [batch] unmaps — wiping every tenant's entries and draining every
    tenant's queue), [Per_domain] uses domain-selective invalidation so
    a noisy tenant's churn cannot flush its neighbors. *)

type invalidation = Per_domain | Global

type domain
(** A tenant handle. *)

type t

val create :
  iotlb_policy:Shared_iotlb.policy ->
  iotlb_capacity:int ->
  invalidation:invalidation ->
  policy:Driver.policy ->
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
  t -> bdf:Rio_iommu.Bdf.t -> ?iova_limit_pfn:int -> unit -> domain
(** Create a tenant: fresh page table, fresh IOVA allocator, context
    entry installed, IOTLB slice registered. Online attach is allowed
    under the [Shared] and [Quota] IOTLB policies — a tenant can join
    while neighbors are translating (the serve daemon's churn path).
    Raises [Invalid_argument] if the bdf is already attached, or under
    [Partitioned] once traffic has started (slice geometry frozen). *)

val remove_domain : t -> domain -> unit
(** Detach the device, take its driver out of the global flush group
    and flush the domain's IOTLB footprint (the device-unplug /
    tenant-teardown path). *)

(** {1 Accessors} *)

val domain_id : domain -> int
val rid : domain -> int

val driver : domain -> Driver.t
(** The tenant's map/unmap engine: its deferred queue flushes at the
    configured {!invalidation} scope. *)

val iotlb : t -> Shared_iotlb.t

(** {1 Hardware side} *)

exception Translation_fault
(** {!Driver.Translation_fault} under the name the service catches: the
    constant exception {!translate_exn} raises for every fault class
    (the specific class is recorded in the counters: {!faults} /
    {!unknown_rid_faults}, and in the tenant driver's
    {!Driver.last_fault}). *)

val translate_exn : t -> rid:int -> iova:int -> write:bool -> Rio_memory.Addr.phys
(** One DMA, the service's per-DMA hot path: the tenant lookup by
    request id (an unknown rid counts in {!unknown_rid_faults} and
    raises), then the tenant's {!Driver.translate_exn}: shared-IOTLB
    lookup (charged and attributed), table walk and fill on a miss,
    permission check. A tenant's rid can only reach its own page table:
    domain A translating domain B's IOVA faults with
    {!Driver.No_translation}, recorded against A. Allocation-free on
    hits and misses alike: the phys result is returned unboxed and
    faults raise the constant {!Translation_fault}. *)

val faults : t -> domain -> int
(** I/O page faults raised by this tenant's device
    ({!Driver.faults} of its driver). *)

val unknown_rid_faults : t -> int
(** DMAs from request ids with no context entry. *)

val iotlb_stats : t -> domain -> Shared_iotlb.stats
