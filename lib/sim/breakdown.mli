(** Per-component cycle accounting.

    Table 1 of the paper decomposes the map and unmap driver calls into
    components (IOVA allocation, page-table update, IOTLB invalidation,
    IOVA find/free, other). Drivers bracket each phase with
    {!Cycles.now}/{!Cycles.since} and {!charge} the difference, so the
    experiment harness can print the same rows. *)

type component =
  | Iova_alloc
  | Iova_find
  | Iova_free
  | Page_table
  | Iotlb_inv
  | Other

val component_name : component -> string
val all_components : component list

type t

val create : unit -> t

val charge : t -> component -> int -> unit
(** Attribute [n] already-charged cycles to a component. *)

val record_call : t -> unit
(** Count one driver invocation (map or unmap) for averaging. *)

val calls : t -> int
val total_cycles : t -> component -> int
val mean_cycles : t -> component -> float
(** Average cycles per recorded call; 0 when no calls recorded. *)

val reset : t -> unit
