(** Deterministic closed-loop load generator for one shard.

    Each tenant owns a set of flow slots. A slot runs a sequence of
    connections; each connection serves a geometric number of requests
    ({!Rio_workload.Objects.requests_per_connection}) and is then
    replaced — connection churn. A request samples an object size from
    the tenant's profile, maps it (single-page {!Shard.map} or
    scatter-gather {!Shard.map_sg} when it spans pages, capped
    at [sg_max] segments), translates every mapped page once, and
    unmaps. Closed-loop tenants issue back-to-back; open-loop tenants
    sleep an exponential think gap between requests.

    All randomness flows from one {!Rio_sim.Splittable_rng} stream per
    connection, keyed [seed / "serve" / shard / tenant / slot / serial]
    — never from shared or ambient state — and time is the shard's
    simulated clock driven through an event queue. The request
    schedule is therefore a pure function of (seed, shard id, specs):
    byte-identical at any [--jobs] (DESIGN.md §10).

    After warm-up, {!run_until} allocates nothing: every op runs through
    {!Shard}'s int-status forms, and a connection open re-seeks the
    flow's cursor in place ({!Rio_sim.Splittable_rng.seek_descend}). *)

type profile = Http | Kv

type tenant_spec = {
  profile : profile;
  think_mean : int;  (** mean think gap in cycles; [0] = closed loop *)
  conn_mean : int;  (** mean requests per connection before churn *)
}

val default_specs : tenants:int -> tenant_spec array
(** The standard mix: tenants alternate Http/Kv profiles, and each
    profile pair alternates closed-loop and open-loop (200k-cycle mean
    think). *)

type t

val create :
  shard:Shard.t ->
  specs:tenant_spec array ->
  seed:int ->
  flows_per_tenant:int ->
  sg_max:int ->
  t
(** [specs] must have exactly [Shard.tenants shard] entries; [sg_max]
    (>= 1) caps a request's scatter-gather list, truncating larger
    objects. *)

val run_until : t -> deadline:int -> stop:Rio_exec.Flag.t -> unit
(** Execute events until the shard clock reaches [deadline] (absolute
    cycles) or [stop] is raised. On normal completion the clock is
    advanced exactly to [deadline] so shards align at snapshot
    barriers; a stopped run leaves the clock wherever it was. *)

val requests : t -> int
(** Requests completed (mapped, translated, unmapped). *)

val connections : t -> int
(** Connections opened, including each slot's first. *)

val dropped : t -> int
(** Requests abandoned because the tenant's IOVA space was exhausted. *)
