(** Shard-affinity dispatch with per-shard request batching.

    Decoded requests are appended to preallocated structure-of-arrays
    batches, one per shard, and executed in shard order at flush
    points (the event loop flushes once per poll iteration, or
    mid-iteration when a batch fills). A tenant is pinned to a shard
    on first sight by hashing [(tenant, bdf)] — all its later
    requests, whatever connection they arrive on, execute on that
    shard's manager, preserving the IOTLB and allocator locality the
    shard design exists for (DESIGN.md §12, §14).

    Responses are encoded straight into each request's connection
    write buffer at execute time; because batches interleave requests
    from many connections, a connection's responses can be reordered
    relative to its requests — [req_id] is the correlation key.

    Both flushes hand each batch slot, already laid out as a {!Cell}
    request cell, to the one op body {!Executor.exec}: {!flush_all}
    inline on this thread, {!flush_cells} through an executor's ring.
    Either way {!complete} encodes the response. {!enqueue} and the
    translate execute path are allocation-free (lint manifest;
    dispatch-translate bench gate). *)

type t

val create :
  shards:Rio_serve.Shard.t array ->
  batch:int ->
  sg_limit:int ->
  ?max_tenants:int ->
  unit ->
  t
(** [batch] slots per shard; wire tenant ids must be below
    [max_tenants] (default 4096) or the request is rejected with
    [bad_request]. The tenant registry starts empty and grows to cover
    the highest tenant id placed so far. *)

val set_stats_cb : t -> (Conn.t -> int -> unit) -> unit
(** How to answer a stats request ([conn], [req_id]) — the event loop
    installs a closure over its own counters. The default answers all
    zeros. The callback must reserve/encode/commit and call
    {!Conn.completed} itself, like any execute. *)

val shard_of : t -> tenant:int -> bdf:int -> int
(** The affinity hash (exposed for tests): which shard a fresh tenant
    presenting from [bdf] would pin to. *)

val phys_bits : int
(** 52, VT-d's maximum host address width: a [map] or [map_sg]
    segment whose last byte lies at or past [2^phys_bits] is a bad
    request. *)

val enqueue : t -> Conn.t -> Wire.req -> bool
(** Append one decoded request. [true] = handled: queued on its
    shard's batch, or answered immediately (stats; [bad_request] for
    an out-of-range or unplaceable tenant, or a [map] / [map_sg]
    segment of zero bytes or reaching past {!phys_bits}). [false] =
    that shard's batch is full — flush and retry. Allocation-free. *)

val flush_all : t -> unit
(** The single-domain flush: execute and clear every shard's batch in
    shard order. Each slot runs through {!Executor.exec} against its
    shard and is {!complete}d into its connection's write buffer at
    once (dead connections' slots are skipped). *)

val flush_cells : t -> cell:int array -> emit:(shard:int -> unit) -> unit
(** The multi-domain flush: pack each batched slot into [cell] (a
    caller-owned scratch of {!Cell.req_width} ints, stamped with the
    connection's {!Conn.token}) and call [emit ~shard] to push it onto
    the owning executor's request ring. [emit] must consume [cell]
    before returning (it is reused for the next slot) and must not
    fail — the loop spins on a momentarily full ring. Dead
    connections' slots are dropped, as in {!flush_all}. *)

val complete : t -> Conn.t -> cell:int array -> unit
(** Encode one {e response} cell ({!Cell.rsp_width} lanes) into
    [conn]'s write buffer and retire its in-flight slot — the tail of
    every execute, inline or multi-domain, counted in {!executed}.
    Allocation-free. *)

val pending : t -> int
(** Requests batched but not yet flushed. *)

val executed : t -> int
val flushes : t -> int
(** Non-empty batch flushes — [executed / flushes] is the realized
    batch amortization. *)

val rejected : t -> int
(** Requests answered [bad_request] without reaching a shard. *)
