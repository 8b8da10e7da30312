(** A shard executor: the consumer end of one request {!Spsc} ring and
    the producer end of one response ring, run on its own domain by
    the multi-domain socket loop ({!Netloop} with [domains > 1]).

    Each executor owns a contiguous slice of the shard array — the IO
    domain routes a request cell to the executor owning its shard, so
    every shard (and its domain manager, IOVA allocator, IOTLB) is
    only ever touched by one executor domain. Request cells carry the
    global shard index ({!Cell.q_shard}); the slice bounds are a
    routing contract of the loop, not enforced here.

    {!step} is the synchronous core (drain what is currently queued,
    execute, push response cells) and is what unit tests drive on a
    single thread; {!run} wraps it in the domain loop — spin briefly
    ([Domain.cpu_relax]), then nap, and exit once {!request_stop} has
    been called and the request ring is empty. After pushing
    responses, {!run} writes one byte to [wake_fd] so a poll-parked
    IO domain wakes to drain them.

    {!exec} is the service's one op body: {!step} runs it here, and
    {!Dispatch.flush_all} runs it inline at one domain. It allocates
    nothing on translate or unmap (lint-gated): cells are int lanes,
    scratch is preallocated, and shard counters are plain ints. *)

type body
(** The op body's state: the global shard array and map_sg scratch.
    Owned by one thread. *)

val body : shards:Rio_serve.Shard.t array -> sg_limit:int -> body

val exec : body -> req:int array -> at:int -> rsp:int array -> unit
(** Run the request cell at [req.(at ..)] ({!Cell.req_width} lanes)
    against its shard and fill the response cell [rsp]
    ({!Cell.rsp_width} lanes), ready for {!Dispatch.complete}. *)

type t

val create :
  shards:Rio_serve.Shard.t array ->
  sg_limit:int ->
  ring_cap:int ->
  wake_fd:Unix.file_descr ->
  t
(** [shards] is the {e global} shard array (cells index into it);
    [ring_cap] sizes both rings (rounded up to a power of two);
    [wake_fd] is the write end of the loop's wake pipe (nonblocking —
    a full pipe already means a wakeup is pending). *)

val request_ring : t -> Spsc.t
(** Producer side belongs to the IO domain. *)

val response_ring : t -> Spsc.t
(** Consumer side belongs to the IO domain. *)

val step : t -> int
(** Execute every request cell currently queued, pushing one response
    cell per request (spinning if the response ring is momentarily
    full — the IO domain drains it every wakeup). Returns the number
    executed. Single-threaded core; callable without a domain. *)

val run : t -> unit
(** The domain body: {!step} until {!request_stop} and an empty
    request ring. *)

val request_stop : t -> unit
(** Ask {!run} to exit after draining. Safe from any domain. *)

val executed : t -> int
(** Requests executed over the executor's lifetime. Exact after the
    domain is joined; a stale-but-safe read while it runs. *)
