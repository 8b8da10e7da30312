(** Thin bindings over poll(2).

    A {!t} owns a malloc'd [struct pollfd] array outside the OCaml
    heap (stable across blocking waits made with the runtime lock
    released, and untouched by the GC), programmed slot by slot. Event
    bits are a stable library encoding — {!ev_in}, {!ev_out},
    {!ev_err} — mapped to the platform's [POLLIN]/[POLLOUT]/
    [POLLERR|POLLHUP|POLLNVAL] inside the stubs.

    Every call here traffics only in immediate ints: the per-wakeup
    path ({!wait}, {!revents}) is allocation-free. Higher-level slot
    bookkeeping (which fd sits where, tokens, swap-removal) belongs to
    [Rio_serve_net.Readiness]. *)

type t

val ev_in : int
val ev_out : int
val ev_err : int

val create : cap:int -> t
(** A set with [cap] programmable slots (grown on demand by callers
    via {!grow}). *)

val capacity : t -> int

val grow : t -> cap:int -> unit
(** Ensure at least [cap] slots, preserving programmed contents. *)

val set : t -> idx:int -> fd:Unix.file_descr -> events:int -> unit
(** Program slot [idx] to watch [fd] for [events] (an {!ev_in} /
    {!ev_out} mask). Raises [Invalid_argument] out of range. *)

val fd : t -> idx:int -> Unix.file_descr

val revents : t -> idx:int -> int
(** Ready bits of slot [idx] after the last {!wait} — an {!ev_in} /
    {!ev_out} / {!ev_err} mask. Allocation-free. *)

val wait : t -> n:int -> timeout_ms:int -> int
(** Poll the first [n] slots; returns how many are ready. [EINTR]
    returns [0]. Releases the OCaml runtime lock while blocking
    (timeout nonzero); the [timeout_ms = 0] probe is a plain call.
    Allocation-free. *)
