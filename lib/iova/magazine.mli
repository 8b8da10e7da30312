(** Bonwick-style magazine cache over an IOVA allocator.

    The one mitigation Linux actually shipped for the Table 1 allocator
    pathology: a size-bucketed cache (the iova rcache) in front of the
    red-black tree. Freed ranges park in a per-size [loaded] magazine;
    allocations pop them back in O(1). Full magazines rotate through a
    bounded depot, and only depot overflow pays the underlying
    allocator's cost again. Ring-buffer drivers allocate and free the
    same few sizes in FIFO order, so in steady state the tree is never
    touched and the linear-scan pathology collapses.

    Parked ranges keep their address space reserved (their nodes stay in
    the base allocator's tree, flagged [cached_free]); {!find_exn} hides
    them so a stale pfn does not resolve. *)

type stats = {
  hits : int;  (** allocations served from a magazine *)
  misses : int;  (** allocations that fell through to the base allocator *)
  bypasses : int;  (** requests larger than [max_cached_size] (both dirs) *)
  depot_gets : int;  (** full magazines loaded from the depot *)
  depot_puts : int;  (** full magazines parked in the depot *)
  flushes : int;  (** magazines spilled back to the base allocator *)
}

(** Instantiated over {!Allocator.S} so any allocator (or a mock in
    tests) can sit underneath. *)
module Make (Base : Allocator.S) : sig
  type base = Base.t
  type t

  val create :
    ?magazine_size:int ->
    ?depot_max:int ->
    ?max_cached_size:int ->
    base:base ->
    clock:Rio_sim.Cycles.t ->
    cost:Rio_sim.Cost_model.t ->
    unit ->
    t
  (** Defaults mirror the Linux rcache: 128-entry magazines, a 32-deep
      depot per size class, sizes 1..[max_cached_size] (default 8) pages
      cached; larger requests bypass straight to the base allocator. *)

  val alloc : t -> size:int -> (int, [ `Exhausted ]) result

  val alloc_pfn : t -> size:int -> int
  (** Unboxed {!alloc} (the zero-alloc map path): the first pfn, or
      [-1] on exhaustion. A magazine hit allocates nothing. *)

  val find_exn : t -> pfn:int -> Rbtree.node
  (** The live range containing [pfn]; parked ranges raise like absent
      ones. Allocation-free.
      @raise Not_found when no live range contains [pfn]. *)

  val free : t -> Rbtree.node -> unit

  val live : t -> int
  (** Ranges currently held by callers (parked ranges are not live). *)

  val base : t -> base

  val drain : t -> unit
  (** Return every parked range to the base allocator (device quiesce /
      memory pressure path). *)

  val stats : t -> stats
  val reset_stats : t -> unit
end

include module type of Make (Allocator)
(** The cache over the paper's uniform {!Allocator.t}, the instance the
    baseline IOMMU driver threads through map/unmap behind the
    [--rcache] knob. *)
