(** The DMA protection modes evaluated by the paper (§5.1).

    Seven modes appear in the evaluation figures; HWpt/SWpt are the two
    additional pass-through configurations used to validate the
    methodology. *)

type t =
  | None_  (** IOMMU disabled: devices use physical addresses *)
  | Hw_passthrough  (** IOMMU enabled, identity translation in hardware *)
  | Sw_passthrough  (** identity page table mapping all of memory *)
  | Strict  (** safe Linux baseline: immediate invalidation *)
  | Strict_plus  (** strict with the constant-time IOVA allocator *)
  | Defer  (** batched invalidation (vulnerability window) *)
  | Defer_plus  (** defer with the constant-time IOVA allocator *)
  | Riommu_minus  (** rIOMMU, non-coherent I/O page walk *)
  | Riommu  (** rIOMMU, coherent I/O page walk *)

val all : t list

val evaluated : t list
(** The seven modes of Figures 7 and 12, in the paper's plotting order:
    strict, strict+, defer, defer+, riommu-, riommu, none. *)

val name : t -> string
(** The paper's label: "strict", "strict+", "defer", "defer+",
    "riommu-", "riommu", "none", "hwpt", "swpt". *)

val of_name : string -> t option

val uses_fast_allocator : t -> bool
val is_deferred : t -> bool
val is_riommu : t -> bool

val coherent_walk : t -> bool
(** Whether the I/O page walker snoops CPU caches in this configuration
    (riommu yes, riommu- no; baseline modes on the paper's testbed: no). *)
