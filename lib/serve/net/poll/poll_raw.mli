(** Thin bindings over poll(2).

    A {!t} owns a fixed-size malloc'd [struct pollfd] array outside the
    OCaml heap (stable across blocking waits made with the runtime lock
    released, and untouched by the GC), programmed entry by entry. An
    entry nobody watches is a hole (fd −1): poll(2) ignores it and
    reports no ready bits, so a caller can index the set by its own
    slot numbers and never compact it. Event bits are a stable library
    encoding — {!ev_in}, {!ev_out}, {!ev_err} — mapped to the
    platform's [POLLIN]/[POLLOUT]/[POLLERR|POLLHUP|POLLNVAL] inside the
    stubs.

    Every call here traffics only in immediate ints: the per-wakeup
    path ({!wait}, {!revents}) is allocation-free. *)

type t

val ev_in : int
val ev_out : int
val ev_err : int

val create : cap:int -> t
(** A set of [cap] entries, every one a hole. *)

val set : t -> idx:int -> fd:Unix.file_descr -> events:int -> unit
(** Program entry [idx] to watch [fd] for [events] (an {!ev_in} /
    {!ev_out} mask). Raises [Invalid_argument] out of range. *)

val clear : t -> idx:int -> unit
(** Turn entry [idx] back into a hole. Raises [Invalid_argument] out
    of range. *)

val revents : t -> idx:int -> int
(** Ready bits of entry [idx] after the last {!wait} — an {!ev_in} /
    {!ev_out} / {!ev_err} mask; always [0] for a hole.
    Allocation-free. *)

val wait : t -> n:int -> timeout_ms:int -> int
(** Poll the first [n] entries; returns how many are ready. [EINTR]
    returns [0]. Releases the OCaml runtime lock while blocking
    (timeout nonzero); the [timeout_ms = 0] probe is a plain call.
    Allocation-free. *)
