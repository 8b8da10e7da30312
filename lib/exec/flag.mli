(** A one-way cancellation flag readable from every domain.

    The long-running service uses one of these to request a graceful
    stop (SIGTERM handler on the main domain sets it; shard loops poll
    it between events). It is an [Atomic.t bool], so a set from a
    signal handler or another domain becomes visible to workers without
    locking.

    The type is abstract so that the flag is monotonic: it can only go
    from clear to set, so a racing reader can observe a stale [false]
    for a moment but never a spurious [true] — shard loops may run one
    extra event after a stop request, never stop without one. *)

type t

val create : unit -> t

val set : t -> unit
(** Raise the flag (idempotent; never lowered). *)

val get : t -> bool
