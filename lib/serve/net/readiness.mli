(** poll(2) readiness for the socket loop, over the [rio_poll] C stubs
    ({!Rio_poll.Poll_raw}).

    Registrations are programmed once into a C-side pollfd array, so
    each wakeup is one allocation-free [poll] call — no per-wakeup set
    rebuild, no [FD_SETSIZE] cap. The pollfd array is kept dense by
    swap-compaction on {!unregister}; registrations return stable int
    handles that indirect through it, and each carries a caller
    [token] (the loop's connection-slot index) handed back by
    {!iter_ready}, so readiness never needs an fd-keyed lookup. *)

val poll_available : bool
(** Always [true]: poll(2) is POSIX and the stubs are built in-tree. *)

(** Ready-bit mask returned by {!iter_ready}. *)

val ev_read : int
val ev_write : int
val ev_err : int

type t

val create : unit -> t

val register : t -> Unix.file_descr -> token:int -> int
(** Watch [fd]; no interest armed yet. Returns a stable handle. *)

val unregister : t -> handle:int -> unit
(** Must be called before closing the fd. Recycles the handle. *)

val interest : t -> handle:int -> read:bool -> write:bool -> unit

val registered : t -> int
(** Live registrations. *)

val wait : t -> timeout_ms:int -> int
(** One poll(2) call over every registration, blocking up to
    [timeout_ms] (-1 = forever); returns the ready count. [EINTR]
    reads as [0]. Allocation-free. *)

val iter_ready : t -> (int -> int -> unit) -> unit
(** [iter_ready t f] calls [f token bits] for each registration with
    nonzero ready bits from the last {!wait}; [bits] is an {!ev_read} /
    {!ev_write} / {!ev_err} mask. Allocation-free apart from the
    caller's [f]. *)
