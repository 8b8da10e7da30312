(** The riommu-serve engine: shards, ticks, snapshots, reports.

    [run] hosts [shards] independent {!Shard}s, each driven by its own
    {!Loadgen}, and advances them in lockstep over snapshot intervals:
    every tick, a {!Rio_exec.Pool.run} fans the shards out over [jobs]
    worker domains, each shard executes its event queue up to the
    tick's simulated-time deadline, and the join barrier publishes the
    shards' histograms to the reporter, which merges them into a
    cumulative {!snapshot}.

    Because each shard's schedule is a pure function of (seed, shard
    id, specs) and shards share no mutable state between barriers, the
    snapshots — and the final report — are byte-identical for any
    [jobs]. Wall-clock time never enters the engine: callers time
    {!run} themselves and pass the measurement to {!render_json}. *)

type config = {
  shards : int;  (** determinism unit; fixed independent of [jobs] *)
  jobs : int;  (** worker domains; [0] = one per recommended domain *)
  tenants : int;  (** tenant domains per shard *)
  flows_per_tenant : int;
  duration_s : float;  (** simulated seconds to serve *)
  interval_s : float;  (** snapshot cadence, simulated seconds *)
  seed : int;
  rcache : bool;  (** magazine front on every tenant's IOVA allocator *)
  iotlb_capacity : int;  (** per-shard IOTLB entries *)
  iotlb_policy : Rio_domain.Shared_iotlb.policy;
  sg_max : int;  (** scatter-gather list cap per request *)
}

val default_config : config
(** 4 shards, sequential, 8 tenants x 4 flows, 1 simulated second in
    250 ms ticks, seed 42, rcache on, 256-entry shared IOTLB,
    16-segment sg lists. *)

type snapshot = {
  tick : int;  (** 1-based tick index *)
  virtual_s : float;  (** simulated seconds elapsed *)
  ops : int array;  (** cumulative op count per {!Shard.op_index} *)
  mean_cycles : float array;
  p50 : int array;
  p99 : int array;
  p999 : int array;
  max_cycles : int array;
  win_ops : int array;  (** ops landed in this tick's window only *)
  win_p50 : int array;  (** window percentiles ({!Histogram.interval_into}) *)
  win_p99 : int array;
  win_p999 : int array;
  requests : int;
  connections : int;
  dropped : int;
  faults : int;
}
(** Cumulative (since start of run) per-op-kind latency statistics,
    merged across all shards, plus the tick's interval window (what
    landed since the previous snapshot barrier — per-reporting-window
    percentiles, not just cumulative). Arrays are indexed by
    {!Shard.op_index}. *)

type tenant_stat = {
  t_ops : int;  (** all op kinds pooled *)
  t_hits : int;  (** IOTLB hits across every shard's domain *)
  t_misses : int;
  t_p50 : int;  (** pooled-latency percentiles, cycles *)
  t_p99 : int;
  t_p999 : int;
}

type report = {
  config : config;
  snapshots : snapshot list;  (** chronological; at least one *)
  tenants : tenant_stat array;  (** per-tenant rollup, index = tenant *)
  stopped : bool;  (** [true] if [stop] cut the run short *)
}

val final : report -> snapshot

val run :
  ?stop:Rio_exec.Flag.t -> ?on_snapshot:(snapshot -> unit) -> config -> report
(** Serve for [duration_s] simulated seconds. [on_snapshot] fires after
    every tick's join barrier (the caller's chance to report wall-clock
    progress). [stop] is polled between events on every shard; once
    raised, shards retire at their next event boundary and the run
    returns with [stopped = true] after the in-flight tick joins. *)

val tenant_stats_of : Shard.t array -> tenants:int -> tenant_stat array
(** Roll the i-th tenant domain of every shard up into one
    {!tenant_stat} (histograms merged exactly, IOTLB counters summed).
    Exposed for the socket transport, whose stats JSON shares the
    per-tenant section. *)

(** {1 Rendering} *)

val bprint_tenants : Buffer.t -> tenant_stat array -> unit
(** Append the [{"tenants": [...]}] JSON section (no trailing comma or
    newline) — the shared shape between the simulated and socket stats
    files. *)

val render_summary : report -> string
(** Human-readable final table. Deterministic: simulated quantities
    only, byte-identical for any [jobs] — this is what the cram test
    [cmp]s. *)

val alloc_probe : unit -> float array
(** Measured minor-heap words per operation for each op kind, from a
    sequential probe loop on a private single-tenant shard (so the
    numbers are attributed to the calling domain and unpolluted by the
    load generator). It runs the forms the service runs ({!Shard.map},
    {!Shard.map_sg}, {!Shard.unmap_record}, {!Shard.unmap_sg_record},
    {!Shard.translate_record}); every kind must read 0.00. *)

val bprint_gc : Buffer.t -> Gc.stat -> unit
(** Append the [{"gc": {...}}] JSON member (no trailing comma or
    newline): [minor_collections], [major_collections], [heap_words]
    and [top_heap_words] of the given counters, the process's GC
    activity as read once at exit. Shared by both stats files. *)

val render_json :
  report -> wall_ns:float -> words_per_op:float array -> gc:Gc.stat -> string
(** Stats JSON in the bench schema ([riommu-serve/1]): one group object
    per line per op kind, with [name]/[iters]/[ns_per_op] (simulated
    mean, machine-independent)/[words_per_op]/[gated_zero_alloc]
    fields exactly as [bench/compare.ml] parses them, plus quantile
    fields and top-level wall-clock throughput ([wall_ns],
    [ops_per_sec]), and last the [gc] object ({!bprint_gc}) of [gc].
    Every group is gated zero-alloc. *)
