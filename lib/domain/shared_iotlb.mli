(** The IOTLB as a shared, contended resource.

    One physical IOMMU serves every device in the machine, so its IOTLB
    is shared by all tenants (§2 of the paper; "Bermuda Triangle of
    Contention" shows the interference is first-order). This layer wraps
    {!Rio_iotlb.Iotlb} with a partitioning policy and per-domain
    accounting so the contention — and its mitigation — is observable.

    Policies:
    - {!Shared}: one LRU array; any domain's fill can evict any other
      domain's entry (the conventional hardware).
    - {!Partitioned}: capacity is split evenly among the registered
      domains (way-partitioned IOTLB); a domain can only evict itself.
    - {!Quota}: every domain gets its own partition capped at a fixed
      entry count, independent of the domain count (oversubscribable;
      still no cross-domain eviction).

    Geometry freezes at the first lookup/insert, but what that means
    depends on the policy: {!Partitioned} slices (total/N) depend on
    the final domain count, so it refuses registration after traffic;
    {!Shared} and {!Quota} have no count-dependent geometry, so tenants
    may attach and detach while neighbors keep translating — the
    online-attach path the serve daemon exercises. *)

type policy =
  | Shared
  | Partitioned
  | Quota of { entries : int }

val policy_name : policy -> string
val policy_of_name : string -> policy option
(** "shared", "partitioned", "quota:N". *)

type stats = {
  hits : int;
  misses : int;
  evictions_self : int;  (** entries this domain pushed out itself *)
  evictions_by_other : int;
      (** entries another domain's fills pushed out — the interference
          signal; always 0 under {!Partitioned} and {!Quota} *)
  invalidations : int;  (** explicit single-entry invalidations issued *)
  domain_flushes : int;  (** domain-selective flushes issued *)
}

type t

val create :
  policy:policy ->
  capacity:int ->
  clock:Rio_sim.Cycles.t ->
  cost:Rio_sim.Cost_model.t ->
  t

val register : t -> domain:int -> bdf:int -> unit
(** Declare that [bdf]'s translations belong to [domain]. Domain ids
    index a dense table, so they should be small and dense (the
    {!Manager} mints them from 1). Raises
    [Invalid_argument] if [bdf] is already owned by another live
    domain, or — under {!Partitioned} only — after traffic has started
    (the even slice geometry is frozen). A late {!Quota} registrant
    gets its fixed slice built on the spot. *)

val unregister : t -> domain:int -> bdf:int -> unit
(** Release [domain]'s ownership of [bdf] (tenant detach), letting a
    later tenant attach to the same bdf. The domain's counters survive
    for reporting. No-op if [bdf] is not owned by [domain]. *)

val find : t -> domain:int -> bdf:int -> vpn:int -> int
(** Hardware lookup, attributed to [domain]'s hit/miss counters.
    Payloads are packed PTE immediates ({!Rio_pagetable.Pte.pack_make}), so
    a miss returns -1 ({!Rio_pagetable.Pte.packed_none}). Allocation-
    and exception-free. *)

val insert : t -> domain:int -> bdf:int -> vpn:int -> int -> unit
(** Fill after a table walk. Under {!Shared} a capacity eviction may
    victimize another domain, which is recorded in the victim's
    [evictions_by_other]; a victim whose bdf has no owner counts for
    nobody. Allocation-free. *)

val invalidate : t -> domain:int -> bdf:int -> vpn:int -> unit
(** Explicit single-entry invalidation (full command cost). *)

val flush_domain : t -> domain:int -> unit
(** Domain-selective invalidation (VT-d DID-scoped flush): drops only
    this domain's entries, charging one flush-command cost. Other
    domains' entries survive under every policy. Allocation-free:
    under {!Shared} the entries are dropped in place during one scan of
    the LRU. *)

val flush_all : t -> unit
(** Global flush: every domain loses everything (the Linux deferred
    mode's batching strategy, now with collateral damage). *)

val stats : t -> domain:int -> stats
val occupancy : t -> domain:int -> int
