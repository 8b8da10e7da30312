(** Discrete-event queue: events ordered by virtual time, ties broken
    by insertion order so runs are deterministic.

    [Loadgen] drives the simulated service's flows through it, and the
    multi-tenant [Scheduler] its tenants' I/Os; the benchmarks and tests
    use it directly.

    The implementation is one binary min-heap ordered by (time, seq)
    over int arrays, with each payload written once into a pooled slot
    at {!push} and cleared at {!pop_exn}, so sifting moves only ints.
    Steady-state [push], [pop_exn] and [next_time] allocate nothing, and
    the pool's spare capacity never pins popped values. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit
(** Schedule an event at absolute [time]. *)

val pop_exn : 'a t -> 'a
(** Remove the earliest event and return its payload (read its time
    first with {!next_time}). Allocation-free.
    @raise Not_found when empty. *)

val next_time : 'a t -> int
(** Time of the earliest event, without removing it. Allocation-free.
    @raise Not_found when empty. *)
