(** rDEVICE: the per-device root of the rIOMMU structures (Figure 9a).

    Holds the array of rRING flat tables for one bus/device/function.
    The context table points here; each ring buffer of the I/O device is
    backed by two rRINGs (§4): one for the descriptor-ring pages mapped
    at initialization, one for the transient target-buffer mappings. *)

type t

val create :
  rid:int ->
  ring_sizes:int list ->
  frames:Rio_memory.Frame_allocator.t ->
  coherency:Rio_memory.Coherency.t ->
  t
(** One rRING per element of [ring_sizes], indexed in order. [rid] is
    the device's 16-bit request identifier. Raises [Invalid_argument]
    for no rings or more than [2^]{!Riova.ring_bits}. *)

val rid : t -> int
val ring_count : t -> int

val ring : t -> int -> Rring.t
(** Raises [Invalid_argument] on out-of-range ring id (the hardware path
    instead faults; see {!Hw}). *)
