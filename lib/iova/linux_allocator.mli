(** The baseline Linux IOVA allocator (strict / defer modes).

    Faithful model of the kernel's [alloc_iova]/[find_iova]/[__free_iova]
    as of the paper's Linux 3.4/3.11 testbed: allocated ranges live in a
    red-black tree; allocation is top-down from [limit_pfn], scanning
    downward from a cached node ([cached32_node]) for a gap; freeing a
    range at or above the cached node resets the cache to the freed
    range's upper neighbour.

    With ring-buffer devices the OS frees IOVAs in the exact order it
    allocated them (FIFO), i.e. it always frees the *highest* live range —
    which resets the cache to the top of the address space and forces the
    next allocation to scan linearly across every live range. This is the
    pathology behind Table 1's ~3,986-cycle strict-mode allocations, and
    it emerges here from the algorithm, not from a constant. *)

type t

val create :
  limit_pfn:int -> clock:Rio_sim.Cycles.t -> cost:Rio_sim.Cost_model.t -> t
(** Allocations are handed out below (and including) [limit_pfn]. *)

val alloc_pfn : t -> size:int -> int
(** Allocate [size] contiguous IOVA pages: the first pfn of the range,
    or [-1] on exhaustion. Charges cycles proportional to the nodes
    scanned. *)

val find_exn : t -> pfn:int -> Rbtree.node
(** [find_iova]: the range containing [pfn] (logarithmic search,
    charged the same whether it resolves or not). This is the "iova
    find" component of Table 1's unmap.
    @raise Not_found when no live range contains [pfn]. *)

val free : t -> Rbtree.node -> unit
(** [__free_iova]: update the allocation cache and erase the range.
    The "iova free" component of Table 1's unmap. *)

val live : t -> int
(** Currently allocated ranges. *)

val last_scan_length : t -> int
(** Nodes stepped over by the most recent {!alloc_pfn} (for tests
    asserting the pathology). *)
