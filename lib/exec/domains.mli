(** The recommended worker count, for callers outside this library
    that size a pool themselves ([riommu_e2e]'s server domains).
    {!Pool.run} with [jobs = 0] uses the same count. *)

val cpu_count : unit -> int
(** [Domain.recommended_domain_count ()]. *)
