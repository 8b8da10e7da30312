(** What is left of the old readiness facade. {!Netloop} drives
    {!Rio_poll.Poll_raw} directly, indexed by connection slot.

    Only [bench/e2e/riommu_e2e.ml] reads this value, and only a
    benchmark change edits [bench/e2e/]; the next one deletes this
    module. *)

val poll_available : bool
(** Always [true]: poll(2) is POSIX and the stubs are built in-tree. *)
