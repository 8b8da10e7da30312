(** Uniform interface over the two IOVA allocators.

    The baseline IOMMU driver is parameterized by an allocator: the
    baseline Linux allocator gives the strict / defer modes, the
    constant-time allocator gives strict+ / defer+. *)

(** The operations every IOVA allocator exposes; {!Magazine.Make} layers
    a Bonwick-style magazine cache over any implementation of this. *)
module type S = sig
  type t

  val alloc : t -> size:int -> (int, [ `Exhausted ]) result

  val alloc_pfn : t -> size:int -> int
  (** Like [alloc] but unboxed for the zero-alloc map path: the first
      pfn of the range, or [-1] on exhaustion. Charges are identical to
      [alloc]. *)

  val find_exn : t -> pfn:int -> Rbtree.node
  (** The live range containing [pfn] (charged, allocation-free).
      @raise Not_found when no live range contains [pfn]. *)

  val free : t -> Rbtree.node -> unit
  val live : t -> int
end

type t

type kind =
  | Linux  (** baseline Linux allocator (strict / defer) *)
  | Fast  (** constant-time allocator (strict+ / defer+) *)

val create :
  kind:kind ->
  limit_pfn:int ->
  clock:Rio_sim.Cycles.t ->
  cost:Rio_sim.Cost_model.t ->
  t

val kind : t -> kind

val alloc : t -> size:int -> (int, [ `Exhausted ]) result
(** Allocate [size] IOVA pages; returns the first pfn. *)

val alloc_pfn : t -> size:int -> int
(** Unboxed {!alloc}: the first pfn, or [-1] on exhaustion. *)

val find : t -> pfn:int -> Rbtree.node option
(** Locate the live range containing [pfn]. *)

val find_exn : t -> pfn:int -> Rbtree.node
(** Allocation-free {!find}. @raise Not_found when absent. *)

val free : t -> Rbtree.node -> unit
val live : t -> int
