(** Uniform interface over the two IOVA allocators.

    The baseline IOMMU driver is parameterized by an allocator: the
    baseline Linux allocator gives the strict / defer modes, the
    constant-time allocator gives strict+ / defer+. {!Magazine} layers
    a Bonwick-style magazine cache over this type. *)

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

val alloc_pfn : t -> size:int -> int
(** Allocate [size] IOVA pages: the first pfn of the range, or [-1] on
    exhaustion. *)

val find_exn : t -> pfn:int -> Rbtree.node
(** The live range containing [pfn] (charged, allocation-free).
    @raise Not_found when no live range contains [pfn]. *)

val free : t -> Rbtree.node -> unit
val live : t -> int
