(** One service shard: a private translation engine plus its metrics.

    The service partitions tenants' flows across shards RSS-style; each
    shard owns a full {!Rio_domain.Manager} instance — its own IOTLB
    slice, its own per-tenant IOVA allocators fronted by magazine
    caches, its own simulated clock — so the request hot path never
    takes a lock and never shares mutable state with another shard
    (DESIGN.md §12). Cross-shard aggregation happens only at snapshot
    barriers, by merging the shards' {!Histogram}s.

    {!map}, {!map_sg}, {!unmap_record}, {!unmap_sg_record} and
    {!translate_record} are the four op kinds the service serves; each
    charges the op's simulated cost to the shard clock and records the
    cycle latency in the op kind's histogram. Every op calls the
    tenant's {!Rio_domain.Driver} directly, the engine the paper
    experiments run. All of them are allocation-free after warm-up
    (lint manifest + bench and test gates): the map forms answer an int
    status, [-1] on exhaustion, instead of a result box. *)

type op = Map | Unmap | Translate | Map_sg

val op_name : op -> string
val op_index : op -> int
(** Stable index in [0, 3] ({!op_count} kinds), the order histograms
    and reports use. *)

val op_count : int
val op_of_index : int -> op

type t

val create :
  id:int ->
  tenants:int ->
  iotlb_capacity:int ->
  iotlb_policy:Rio_domain.Shared_iotlb.policy ->
  rcache:bool ->
  ?buf_pool:int ->
  unit ->
  t
(** A shard with [tenants] domains attached (bdf = bus [tenant+1]) and
    a cyclic pool of [buf_pool] (default 1024) DMA-able frames. *)

val id : t -> int
val tenants : t -> int
val clock : t -> Rio_sim.Cycles.t
val manager : t -> Rio_domain.Manager.t
val domain : t -> tenant:int -> Rio_domain.Manager.domain

val next_buf : t -> Rio_memory.Addr.phys
(** Next frame of the shard's buffer pool (cyclic; page-aligned). *)

(** {1 Recorded operations} *)

val map : t -> tenant:int -> phys:Rio_memory.Addr.phys -> bytes:int -> int
(** Map [bytes] bytes at [phys] with {!Rio_domain.Driver.map_exn},
    recorded in the [Map] histogram. Answers the IOVA, or [-1] when the
    tenant's IOVA space or the shard's frame pool is exhausted (the
    engine left nothing mapped). Allocation-free after warm-up. *)

val map_record :
  t -> tenant:int -> phys:Rio_memory.Addr.phys -> bytes:int ->
  (int, [ `Exhausted ]) result
(** {!map} with its status boxed in a result. Kept only because the
    end-to-end benchmark's replay ([bench/e2e/replay.ml]) calls it; the
    next change to that benchmark switches the replay to {!map} and
    deletes this wrapper. Nothing in the service calls it. *)

val unmap_record : t -> tenant:int -> iova:int -> (unit, [ `Not_mapped ]) result

val map_sg :
  t -> tenant:int -> phys:Rio_memory.Addr.phys array -> bytes:int array ->
  n:int -> iovas:int array -> int
(** Map the first [n] segments ([bytes.(i)] bytes at [phys.(i)]) with
    {!Rio_domain.Driver.map_sg_exn}, writing segment [i]'s IOVA into
    [iovas.(i)], recorded in the [Map_sg] histogram as one operation.
    Answers [n], or [-1] on exhaustion (the batch was rolled back
    whole). Allocation-free after warm-up. *)

val unmap_sg_record :
  t -> tenant:int -> iovas:int array -> n:int -> (unit, [ `Not_mapped ]) result
(** Batch unmap ({!Rio_domain.Driver.unmap_sg_exn} with [~flush:Per_iova]),
    recorded in the [Unmap] histogram as one operation. *)

val translate_record : t -> tenant:int -> iova:int -> write:bool -> Rio_memory.Addr.phys
(** One DMA translation, recorded in the [Translate] histogram.
    Allocation-free in steady state; faults propagate
    {!Rio_domain.Driver.Translation_fault} after being counted. *)

(** {1 Metrics} *)

val hist : t -> op -> Histogram.t

val tenant_hist : t -> tenant:int -> Histogram.t
(** All four op kinds pooled into one latency histogram per tenant —
    the per-tenant breakdown the stats JSON reports. Recorded alongside
    the per-op histogram on every [*_record] call (still
    allocation-free). *)

val iotlb_stats : t -> tenant:int -> Rio_domain.Shared_iotlb.stats
(** The tenant domain's shared-IOTLB accounting (hits, misses,
    evictions, flushes) on this shard. *)

val ops : t -> op -> int
val total_ops : t -> int
val faults : t -> int
(** Tenant faults plus unknown-rid faults on this shard's manager. *)
