(** The authors' constant-time IOVA allocator (the "+" modes).

    Models the EiovaR design of the companion FAST'15 paper: freed IOVA
    ranges are not erased from the red-black tree but parked in per-size
    free-magazines and recycled in O(1). Allocation therefore costs a
    handful of cycles (Table 1: 92-108) instead of a linear scan; freeing
    is a constant-time push (Table 1: 57-62). The price is a *fuller*
    tree — live plus parked ranges — which makes the unmap-time lookup
    slightly costlier than in strict mode (Table 1: 418 vs 249), exactly
    as the paper observes. *)

type t

val create :
  limit_pfn:int -> clock:Rio_sim.Cycles.t -> cost:Rio_sim.Cost_model.t -> t

val alloc_pfn : t -> size:int -> int
(** Recycle a parked range of the same size if one exists (O(1));
    otherwise carve a fresh range below all existing ones. The first
    pfn, or [-1] on exhaustion. *)

val find_exn : t -> pfn:int -> Rbtree.node
(** Logarithmic search in the (fuller) tree; parked ranges raise like
    absent ones. @raise Not_found when no live range contains [pfn]. *)

val free : t -> Rbtree.node -> unit
(** Park the range in its size-class magazine. *)

val live : t -> int
(** Ranges currently allocated (excludes parked ones). *)

val tree_size : t -> int
(** Live + parked ranges resident in the tree. *)

val parked : t -> int
(** Ranges sitting in magazines. *)
