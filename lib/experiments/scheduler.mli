(** Multi-device discrete-event scheduler.

    Interleaves N tenants — NIC, NVMe and SATA device classes with
    different I/O sizes, working sets and inter-arrival times — over one
    modeled IOMMU, using {!Rio_sim.Event_queue} (whose same-time
    insertion-order tie-break makes runs deterministic for a given
    seed). Each scheduling event runs one burst of I/Os for one tenant:
    map a transient DMA buffer, let the device translate its pages plus
    a few hot working-set pages (descriptor rings, scatter-gather
    lists), then unmap.

    Protection modes (reusing {!Rio_protect.Mode}):
    - strict: immediate per-page invalidation through the shared IOTLB
      ({!Rio_domain.Manager});
    - defer: per-tenant deferred queues, batched flush at the configured
      {!Rio_domain.Manager.invalidation} scope;
    - riommu / riommu-: the {!Rio_core} engine itself. Each tenant is an
      {!Rio_core.Rdevice} attached to one shared {!Rio_core.Hw}, so all
      tenants share one rIOTLB holding one entry per rRING. Ring 0
      holds the working set, mapped once at setup; ring 1 takes each
      I/O buffer as one byte-granular rPTE through
      {!Rio_core.Driver.map_exn}. Every page the device touches goes
      through {!Rio_core.Hw.rtranslate_exn}, and the burst's last unmap
      issues the one rIOTLB invalidation. Hits, misses (flat-table
      walks) and faults are the engine's counters, read as deltas
      around each burst.

    Interference is read off the per-tenant results: a noisy neighbor
    inflates a victim's shared-IOTLB miss rate and therefore its cycles
    per I/O.

    Every {!Rio_domain.Manager} tenant runs the constant-time IOVA
    allocator, so strict and defer here are already what {!Rio_protect.Mode}
    calls strict+ and defer+; the + modes are rejected rather than
    rerun under another name. *)

type device_class = Nic | Nvme | Sata

val class_name : device_class -> string

type tenant_spec = {
  name : string;
  device : device_class;
  latency_critical : bool;
  pool_pages : int;
      (** persistently mapped working set the device keeps touching *)
  io_bytes : int;  (** transient buffer mapped + unmapped per I/O *)
  burst : int;  (** I/Os per scheduling event *)
  think_time : int;  (** virtual ns between bursts *)
  touches : int;  (** working-set pages touched per I/O *)
}

val nic_tenant : ?latency_critical:bool -> name:string -> unit -> tenant_spec
(** Small I/Os, small working set, short think time: the
    latency-critical tenant of the interference experiment. *)

val nvme_tenant : name:string -> unit -> tenant_spec
(** Large bursts over a large working set: a noisy neighbor. *)

val sata_tenant : name:string -> unit -> tenant_spec
(** Big sequential I/Os, slow cadence, large working set. *)

type tenant_result = {
  spec : tenant_spec;
  ios : int;  (** I/Os completed *)
  cycles : int;  (** cycles attributed to this tenant *)
  ops_per_mcycle : float;  (** throughput: I/Os per million cycles *)
  cycles_per_io : float;
  hits : int;
  misses : int;
  miss_rate : float;
      (** translation misses / lookups; under rIOMMU a miss is a
          flat-table walk *)
  evictions_by_other : int;  (** shared-IOTLB only; 0 elsewhere *)
  faults : int;
}

type config = {
  mode : Rio_protect.Mode.t;
  policy : Rio_domain.Shared_iotlb.policy;
  invalidation : Rio_domain.Manager.invalidation;
  iotlb_capacity : int;
  ios_per_tenant : int;
  seed : int;
}
(** The rIOMMU modes ignore [policy], [invalidation] and
    [iotlb_capacity]: the rIOTLB has no shared capacity to divide, and
    the driver issues its own invalidation at each burst end. *)

val default_config :
  ?invalidation:Rio_domain.Manager.invalidation ->
  ?iotlb_capacity:int ->
  ?ios_per_tenant:int ->
  ?seed:int ->
  mode:Rio_protect.Mode.t ->
  policy:Rio_domain.Shared_iotlb.policy ->
  unit ->
  config
(** Defaults: 128-entry IOTLB, 1000 I/Os per tenant, seed 42.
    [invalidation] defaults to [Global] under [Shared] (the Linux
    behavior) and [Per_domain] under the partitioned policies (scoped
    invalidation is part of the mitigation). *)

val run : config -> tenant_spec list -> tenant_result list
(** Run every tenant to completion; results in tenant order. Raises
    [Invalid_argument] for modes with no protection path here
    (none / passthrough) and for strict+ / defer+. *)
