(** Splittable SplitMix64 streams for deterministic parallel runs.

    A [t] is an immutable position in a SplitMix64 stream. Child
    streams are derived {e purely} - [descend t key] depends only on
    [t] and [key], never on how many siblings were derived before - so
    a cell addressed by a path like [["table1"; "strict"; "trial0"]]
    gets the same stream whether the grid runs sequentially, on 4
    domains, or in reversed order. This is the property the parallel
    experiment harness relies on for byte-identical output at any
    [--jobs] level.

    Values are drawn through a {!cursor}: a mutable read head placed at
    a position, which yields the stream's SplitMix64 values in order
    without allocating.

    Statistical quality is SplitMix64's (Steele, Lea & Flood,
    OOPSLA'14): 64-bit state advanced by a per-stream odd gamma and
    finalized with Stafford's mix13. *)

type t

val create : seed:int -> t
(** Root stream of a master seed. *)

val descend : t -> int -> t
(** Child stream keyed by an integer. Distinct keys give independent
    streams; equal keys give equal streams. *)

val descend_string : t -> string -> t
(** Child stream keyed by a string (FNV-1a folded into {!descend}). *)

val path : t -> string list -> t
(** [path t [a; b; c]] = [descend_string (descend_string (descend_string
    t a) b) c]. *)

val seed : t -> int
(** Collapse a stream to a nonnegative [int] seed for {!Rng.create} -
    the bridge into the existing mutable simulator RNG. *)

type cursor
(** A mutable read head over one stream. Drawing advances the cursor,
    never the [t] it was placed at. *)

val cursor : t -> cursor
(** A fresh cursor at the start of [t]'s stream. *)

val seek : cursor -> t -> unit
(** Move the cursor to the start of [t]'s stream. Allocation-free. *)

val seek_descend : cursor -> t -> int -> unit
(** [seek_descend c t key] = [seek c (descend t key)], but writes the
    child's position straight into the cursor: allocation-free, where
    {!descend} builds a record. *)

val draw : cursor -> int64
(** The next 64-bit value of the stream, advancing the cursor.
    Allocation-free once inlined (the release build inlines it, so the
    value stays unboxed in the caller). *)
