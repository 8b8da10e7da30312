(** Discrete-event queue: events ordered by virtual time, ties broken
    by insertion order so runs are deterministic.

    [Loadgen] drives the simulated service's flows through it, and the
    multi-tenant [Scheduler] its tenants' I/Os; the benchmarks and tests
    use it directly. Each event carries an int payload (a flow slot, a
    tenant index); a caller with richer events keeps them in its own
    array and queues the index.

    The implementation is one binary min-heap ordered by (time, seq)
    over int arrays. Steady-state [push], [pop_exn] and [next_time]
    allocate nothing. *)

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int

val push : t -> time:int -> int -> unit
(** Schedule an event at absolute [time]. *)

val pop_exn : t -> int
(** Remove the earliest event and return its payload (read its time
    first with {!next_time}). Allocation-free.
    @raise Not_found when empty. *)

val next_time : t -> int
(** Time of the earliest event, without removing it. Allocation-free.
    @raise Not_found when empty. *)
