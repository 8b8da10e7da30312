(** Heavy-tailed object-size and inter-arrival models for user flows.

    Pure inverse-CDF samplers: each takes a uniform draw as an int in
    [0, 2{^53}) — the top 53 bits of one {!Rio_sim.Splittable_rng.draw},
    read as the float [bits / 2{^53}] in [0, 1) — and returns a
    deterministic quantile, so a flow whose draws come from its own
    stream produces the same object sequence no matter how many shards
    or worker domains the service runs with.

    Two profiles, anchored on the calibrated request models the
    experiments already use:

    - {b HTTP} ({!http_bytes}): a bounded Pareto body. The mass sits
      near {!Apache.request_config}[ KB1]'s 1 KB responses while the
      tail reaches the megabyte class that behaves like Netperf stream
      (the Apache 1 MB column) — the classic heavy-tailed web-object
      distribution.
    - {b KV} ({!kv_bytes}): {!Memcached.request_config}'s regime — 90%
      of requests move the ~1 KB value (plus 64 B key), the remaining
      10% are multi-KB multigets. *)

val http_bytes : int -> int
(** Bounded Pareto (alpha 1.2) on [256 B, 1 MB]: median ~1 KB, mean
    dominated by the tail. *)

val kv_bytes : int -> int
(** Memcached-style: 90% in [64 B, 1088 B] (key+value), 10% multigets
    in (1 KB, 16 KB]. *)

val requests_per_connection : mean:int -> int -> int
(** Geometric number of requests a connection serves before closing
    (>= 1); models connection churn. *)

val think_cycles : mean:int -> int -> int
(** Exponential think/inter-arrival gap in cycles for open-loop flows
    (>= 0). [mean 0] always returns 0 (closed-loop back-to-back). *)
