(** Bonwick-style magazine cache over an {!Allocator.t}.

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
    them so a stale pfn does not resolve. The baseline IOMMU driver
    threads this cache through map/unmap behind the [--rcache] knob. *)

type stats = {
  hits : int;  (** allocations served from a magazine *)
  misses : int;  (** allocations that fell through to the base allocator *)
  bypasses : int;  (** requests larger than [max_cached_size] (both dirs) *)
  depot_gets : int;  (** full magazines loaded from the depot *)
  depot_puts : int;  (** full magazines parked in the depot *)
  flushes : int;  (** magazines spilled back to the base allocator *)
}

type t

val create :
  ?magazine_size:int ->
  ?depot_max:int ->
  ?max_cached_size:int ->
  base:Allocator.t ->
  clock:Rio_sim.Cycles.t ->
  cost:Rio_sim.Cost_model.t ->
  unit ->
  t
(** Defaults mirror the Linux rcache: 128-entry magazines, a 32-deep
    depot per size class, sizes 1..[max_cached_size] (default 8) pages
    cached; larger requests bypass straight to the base allocator. *)

val alloc_pfn : t -> size:int -> int
(** The first pfn of a [size]-page range, or [-1] on exhaustion (the
    zero-alloc map path). A magazine hit allocates nothing. *)

val find_exn : t -> pfn:int -> Rbtree.node
(** The live range containing [pfn]; parked ranges raise like absent
    ones. Allocation-free.
    @raise Not_found when no live range contains [pfn]. *)

val free : t -> Rbtree.node -> unit
(** Park the range (or hand it to the base allocator when it bypasses
    the cache). Raises [Invalid_argument] if the range is already free
    (parked, or spilled back to the base allocator). *)

val live : t -> int
(** Ranges currently held by callers (parked ranges are not live). *)

val drain : t -> unit
(** Return every parked range to the base allocator (device quiesce /
    memory pressure path). *)

val stats : t -> stats
