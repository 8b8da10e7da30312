(** Deterministic pseudo-random number generation (splitmix64).

    All randomness in the simulation flows through an explicit generator so
    that every experiment is reproducible from its seed. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** A generator seeded deterministically from [seed]. *)

val split : t -> t
(** Derive an independent generator stream (for parallel subsystems that
    must not perturb each other's sequences). *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
