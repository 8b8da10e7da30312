(** Physical frame allocator.

    Hands out 4 KB frames from a bounded physical memory. Freed frames are
    recycled LIFO, which (as on a real machine under load) makes reuse of
    recently-unmapped frames the common case — exactly the situation the
    deferred IOMMU mode's vulnerability window exposes. *)

type t

val create : total_frames:int -> t
(** A memory of [total_frames] 4 KB frames starting at physical 0. *)

exception Exhausted
(** Physical memory has no free frame left. *)

val alloc_exn : t -> Addr.phys
(** Allocate one frame. @raise Exhausted when physical memory is
    exhausted. *)

val alloc_contiguous : t -> frames:int -> Addr.phys option
(** Allocate [frames] physically contiguous frames (for rings and page
    tables). Only draws from the never-allocated region, so it can fail
    even when enough fragmented frames are free. *)

val free : t -> Addr.phys -> unit
(** Return a frame. Raises [Invalid_argument] if the address is not
    page-aligned or was not allocated. *)

val allocated : t -> int
(** Frames currently live. *)
