(** rRING: one flat page table (Figure 9b).

    An array of rPTEs backed by physically-contiguous memory (so
    cacheline flushes have real addresses), plus the software-only [tail]
    and [nmapped] fields the driver uses for allocation. Each rPTE slot
    keeps a CPU view and a hardware (walker) view, two int lanes holding
    the two {!Rpte} words per slot; on a non-coherent system the walker
    view catches up only at [sync] - exactly the riommu vs riommu-
    distinction. *)

type t

val create :
  size:int ->
  frames:Rio_memory.Frame_allocator.t ->
  coherency:Rio_memory.Coherency.t ->
  t
(** A ring of [size] invalid rPTEs. [size] must be in [\[1, 2^18\]].
    Raises [Failure] if backing frames cannot be allocated. *)

val size : t -> int
val tail : t -> int
val nmapped : t -> int
val set_tail : t -> int -> unit
val incr_nmapped : t -> unit
val decr_nmapped : t -> unit

val cpu_word1 : t -> int -> int
(** The OS's view of slot [i]'s word1. *)

val hw_phys : t -> int -> int
val hw_word1 : t -> int -> int
(** The walker's view of slot [i] (stale until synced when
    non-coherent). *)

val set_cpu : t -> int -> phys:int -> word1:int -> unit
(** CPU store to slot [i]: updates the CPU view; visible to the walker
    immediately only on a coherent system. *)

val sync : t -> int -> unit
(** The paper's [sync_mem] for slot [i]: barrier (+ flush + barrier when
    non-coherent, costs charged) and publish the CPU view to the
    walker. *)
