(** Cycle accounting.

    Every component of the simulation charges CPU cycles to a {!t} counter.
    The counter is the simulation's notion of time: per the paper's §3.3
    performance model, throughput is entirely determined by the number of
    cycles the core spends per I/O request, so a plain cycle accumulator is
    a sufficient clock for reproducing the evaluation. *)

type t
(** A mutable cycle counter. *)

val create : unit -> t
(** A fresh counter at cycle 0. *)

val now : t -> int
(** Cycles elapsed since creation. *)

val charge : t -> int -> unit
(** [charge t c] advances the counter by [c] cycles. [c] must be
    non-negative. *)

val since : t -> int -> int
(** [since t start] is [now t - start]: the cycles elapsed since a
    previously sampled [now]. *)

val measure : t -> (unit -> 'a) -> 'a * int
(** [measure t f] runs [f ()] and returns its result together with the
    cycles it charged to [t]. *)
