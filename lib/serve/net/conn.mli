(** Per-connection buffering, frame reassembly, and backpressure.

    A [t] owns one read buffer and one write buffer and no socket —
    the event loop moves bytes between the fds and these buffers, so
    the reassembly logic (partial frames, the hello handshake, the
    in-flight window) is testable without any I/O.

    {2 Backpressure contract}

    At most [window] requests may be in flight — decoded by {!next}
    but not yet {!completed} — and one more request is {e admitted}
    ({!can_admit}) only while the write buffer retains a maximal
    response reservation ({!Wire.max_response_bytes}) for every
    in-flight request plus the candidate. That invariant is preserved
    by every execute (which spends at most one reservation and retires
    one in-flight slot) and every drain, so a {!reserve} after an
    admitted decode {b cannot fail}; a [-1] from it means the caller
    bypassed {!can_admit}. While admission is closed — window full, or
    a slow peer has left too many encoded responses queued — the loop
    stops polling the fd for reads, the kernel socket buffer fills,
    and the peer's writes stall: backpressure end to end without a
    single dropped or reordered-out-of-band request. *)

type t

val create :
  ?rbuf_bytes:int -> ?wbuf_bytes:int -> window:int -> sg_limit:int -> unit -> t
(** Read buffer defaults to four maximal request frames (at least
    8 KiB); write buffer defaults to twice [window] maximal responses
    (so admission keeps a ~50% duty cycle against a slow reader) and
    must be at least [window] of them. Raises [Invalid_argument] on a
    window or buffer too small to make progress. *)

val inflight : t -> int

val bdf : t -> int
(** The device id the peer presented in its hello; [0] until then. *)

val alive : t -> bool
(** Cleared on any protocol error ({!next} returning negative) or by
    {!kill}; a dead connection decodes nothing further. *)

val kill : t -> unit

val token : t -> int
(** The event loop's slot index for this connection ([-1] until
    {!set_token}). Dispatch stamps it into ring cells
    ({!Cell.q_slot}) so responses route back without the [Conn.t]
    crossing domains. *)

val set_token : t -> int -> unit

(** {1 Read side} *)

val rbuf : t -> Bytes.t

val read_capacity : t -> int
(** Free bytes at the tail of the read buffer, after compacting any
    consumed prefix. Call before reading from the fd into
    [rbuf] at {!read_offset}. *)

val read_offset : t -> int
val fed : t -> int -> unit
(** Account [n] bytes just read from the fd into the buffer at
    {!read_offset}. *)

val feed : t -> Bytes.t -> pos:int -> len:int -> unit
(** Copy bytes in (the unit-test entry point; the loop uses
    {!read_capacity}/{!read_offset}/{!fed} to read straight into the
    buffer). Raises [Invalid_argument] past {!read_capacity}. *)

val next : t -> Wire.req -> int
(** Decode the next frame off the front of the read buffer — the
    16-byte hello first on a fresh connection, then requests. Returns
    the {!Wire.decode_request} convention: [> 0] a request was decoded
    into the record (the in-flight window grew by one), [0] need more
    bytes, [< 0] protocol error (the connection is killed).
    Allocation-free. *)

(** {1 Write side} *)

val wbuf : t -> Bytes.t
val wpos : t -> int
val queued : t -> int
(** Bytes encoded but not yet handed to the fd. *)

val reserve : t -> int -> int
(** [reserve t n]: offset in {!wbuf} with [n] free bytes after it
    (compacting first if needed), or [-1] — which, within the window
    contract, indicates a caller bug, and the loop treats it as fatal
    for the connection. *)

val commit : t -> int -> unit
(** [commit t p]: the caller encoded up to offset [p]; make those
    bytes eligible for writing. *)

val completed : t -> unit
(** One in-flight request has been answered (its response encoded and
    committed); shrinks the window. *)

val consumed : t -> int -> unit
(** The fd accepted [n] queued bytes. *)

(** {1 Backpressure} *)

val can_admit : t -> bool
(** May one more request be decoded? [true] iff the connection is
    alive, the window has a free slot, and the write buffer can still
    reserve a maximal response for every in-flight request plus this
    one. The event loop gates each {!next} call on this. *)

val want_read : t -> bool
(** {!can_admit} and the read buffer has free space. *)

val want_write : t -> bool

