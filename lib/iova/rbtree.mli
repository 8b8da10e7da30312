(** Red-black interval tree holding allocated IOVA ranges.

    This is the data structure the Linux IOVA allocator keeps its ranges
    in: nodes are [\[lo, hi\]] page-frame-number intervals ordered by [lo],
    with parent pointers so the allocators can walk neighbours
    ([rb_prev]/[rb_next]) during their downward gap scans.

    Every node dereference increments a visit counter; the allocators
    convert visit deltas into cycles, which is how the paper's Table 1
    component costs (and the strict-mode linear pathology) emerge from the
    real algorithm rather than from hard-coded constants. *)

type t
type node

val create : unit -> t
val size : t -> int

(** {1 Node accessors} *)

val lo : node -> int
val hi : node -> int
val cached_free : node -> bool
(** Scratch flag used by the constant-time allocator to mark nodes whose
    range is currently in its free-magazine rather than live. *)

val set_cached_free : node -> bool -> unit

val deleted : node -> bool
(** The node has been removed from its tree by {!delete}. *)

(** {1 Queries} *)

val find_containing_exn : t -> int -> node
(** The node whose interval contains the given pfn (allocation-free,
    counts visits). @raise Not_found when absent. *)

val max_node : t -> node option
(** Highest interval ([rb_last]). *)

val prev : t -> node -> node option
(** In-order predecessor ([rb_prev]). *)

val next : t -> node -> node option
(** In-order successor ([rb_next]). *)

(** {1 Mutation} *)

val insert : t -> lo:int -> hi:int -> node
(** Insert a fresh interval. Raises [Invalid_argument] if it overlaps an
    existing one or [lo > hi]. *)

val delete : t -> node -> unit
(** Remove a node. Raises [Invalid_argument] if the node was already
    deleted. *)

(** {1 Accounting and verification} *)

val visits : t -> int
(** Total node dereferences so far (monotonic). *)

val check_invariants : t -> (unit, string) result
(** Validate the red-black properties, ordering, and interval
    disjointness; used by property tests. *)
