(** Zero-allocation HDR-style latency histogram (log-linear buckets).

    The service records one integer latency (simulated cycles) per
    operation, millions of times per run, so {!record} must not
    allocate: a [t] is a flat int-array of bucket counts plus a few
    mutable scalars, and recording is a shift/mask index computation
    and an increment.

    Bucketing is the HdrHistogram scheme: values below
    [2 * 2^sub_bits] land in exact unit buckets; above that, each
    power-of-two octave is split into [2^sub_bits] equal linear
    sub-buckets, so every bucket's width is at most [2^-sub_bits] of
    its low edge and any recorded quantile is reproduced with bounded
    relative error ({!rel_error_bound}).

    Histograms are mergeable: per-shard recording stays lock-free and
    the reporter folds shards together with {!merge_into}, which is
    exact — merging two histograms yields bucket-for-bucket the same
    [t] as recording the union of their samples (the property test
    pins this). *)

type t

val create : ?sub_bits:int -> ?max_value:int -> unit -> t
(** [sub_bits] (default 5: 32 sub-buckets per octave, <= 3.125%
    relative error) and [max_value] (default 2^40; larger recordings
    clamp) fix the geometry. Raises [Invalid_argument] if [sub_bits]
    is outside [1, 15] or [max_value < 2]. *)

val record : t -> int -> unit
(** Record one value, clamped to [0, max_value]. Allocation-free. *)

val record2 : t -> t -> int -> unit
(** [record2 a b v] is [record a v; record b v], clamping and bucketing
    [v] once when the two share a geometry (the service records every
    op into its op kind's and its tenant's histogram). Allocation-free. *)

val count : t -> int
(** Total recordings. *)

val max_recorded : t -> int
(** Largest (clamped) value recorded; 0 when empty. *)

val mean : t -> float
(** Exact mean of the (clamped) recordings — a running sum is kept
    alongside the buckets. 0 when empty. *)

val quantile : t -> float -> int
(** [quantile t q] for [0 < q <= 1]: an upper bound for the
    nearest-rank [q]-quantile, from the same bucket as the exact value
    — so it is within [rel_error_bound t] relative error above it.
    [0] when empty. Raises [Invalid_argument] on a [q] outside the
    range. *)

val rel_error_bound : t -> float
(** [2^-sub_bits]: guaranteed bound on [(quantile - exact) / exact]. *)

val bucket_of : t -> int -> int
(** Bucket index a value lands in (exposed for the property tests). *)

val merge_into : dst:t -> t -> unit
(** Add every bucket of the source into [dst]. Exact. Raises
    [Invalid_argument] if the two geometries differ. *)

val equal : t -> t -> bool
(** Same geometry, same bucket counts, same total and max. *)

val interval_into : t -> into:t -> unit
(** Interval (per-reporting-window) snapshot: add everything recorded
    into [t] {e since the previous} [interval_into t] (or since
    creation, the first time) into [into], and advance the checkpoint.
    Merging — not overwriting — so a reporter folds several recorders'
    windows into one window histogram the same way {!merge_into} folds
    cumulative ones. The window's exact maximum is carried (tracked by
    {!record}, not recovered from buckets) and merged into [into]'s max
    when the window is non-empty. Quantiles of the result are the
    window's percentiles: latency over the last reporting interval, not
    since start of run. Raises [Invalid_argument] on a geometry
    mismatch. The checkpoint costs one extra counts-array copy,
    allocated lazily on the first call. *)

val reset : t -> unit
(** Clear every recording {e and} the {!interval_into} checkpoint. *)
