(** The socket event loop behind [riommu-serve --listen].

    Nonblocking fds in one fixed poll(2) set ({!Rio_poll.Poll_raw}),
    sized at start-up to the listener, the executor wake pipes and
    [max_conns] connection slots: accept new connections into a slot
    table whose slot is also the connection's poll entry (a free slot
    is a hole poll(2) skips), read into per-connection buffers, decode
    admissible requests ({!Conn.can_admit} is the backpressure gate),
    batch them by shard affinity ({!Dispatch}), flush once per poll
    iteration, and write queued responses back. Only interest
    {e changes} are re-programmed — no per-wakeup fd-set rebuild.

    With [domains = 1] (the default) shards execute on the loop
    thread ({!Dispatch.flush_all}), the single-dispatcher design of
    DESIGN.md §14.
    With [domains = N > 1] (clamped to the shard count), N shard
    executor domains each own a contiguous slice of the shard array:
    flushes pack batch slots into fixed-width integer cells pushed
    over bounded {!Spsc} rings, executors run them against their
    shards and push response cells back, and this thread encodes
    those into the owning connection's write buffer — sockets and
    buffers never leave the IO domain. Executors wake a parked loop
    through a self-pipe. See DESIGN.md §15.

    Wall-clock time never enters the library: callers inject [now_s]
    (the binary passes [Unix.gettimeofday], which the determinism lint
    bans from lib/) and it is used only to pace progress ticks. *)

type addr = Unix_path of string | Tcp of string * int

val parse_addr : string -> (addr, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], or bare ["HOST:PORT"] (numeric
    host or ["localhost"]; empty host means 127.0.0.1). *)

val addr_to_string : addr -> string

type config = {
  addr : addr;
  batch : int;  (** dispatch batch slots per shard *)
  window : int;  (** per-connection in-flight request cap *)
  sg_limit : int;  (** max scatter-gather segments per request *)
  max_conns : int;  (** accepts beyond this are refused (closed) *)
  domains : int;  (** executor domains; [1] = execute on the loop *)
  now_s : unit -> float;  (** injected wall clock (seconds) *)
  tick_every_s : float;  (** [on_tick] cadence; [<= 0] disables *)
}

val default_config : addr:addr -> config
(** batch 64, window 128, sg_limit 16, 64 connections, 1 domain,
    ticks disabled, clock stuck at 0 (supply [now_s] to enable). The
    dispatcher keeps {!Dispatch.create}'s default tenant-id space. *)

type stats = {
  domains : int;  (** effective executor domains after clamping *)
  domain_ops : int array;
      (** per-executor requests executed; [[||]] when [domains = 1] *)
  mutable accepted : int;
  mutable refused : int;  (** accepted then closed over the conn cap *)
  mutable closed : int;
  mutable requests : int;  (** request frames decoded *)
  mutable responses : int;  (** responses encoded (incl. rejects) *)
  mutable protocol_errors : int;  (** connections killed by bad frames *)
  mutable batch_flushes : int;  (** non-empty shard batch executions *)
  mutable rejected : int;  (** bad_request answers *)
  mutable bytes_in : int;
  mutable bytes_out : int;
}

val serve :
  ?stop:Rio_exec.Flag.t ->
  ?on_tick:(stats -> unit) ->
  shards:Rio_serve.Shard.t array ->
  config ->
  stats
(** Listen and serve until [stop] is raised, then flush outstanding
    batches (waiting for in-flight ring cells and joining executor
    domains first when [domains > 1]), best-effort drain each
    connection's queued responses, close everything (unlinking a
    unix-domain path), and return the final counters. [on_tick] fires
    at most every [tick_every_s] wall seconds with live counters.
    Shard histograms and tenant stats are readable after return
    exactly like after a simulated run (executor domains are joined
    before it). *)

(** {1 The final report}, a pure function of the final counters, the
    served shards, the config and the wall seconds served *)

val render_summary :
  stats -> shards:Rio_serve.Shard.t array -> config -> wall_s:float -> string
(** The [riommu-serve --listen] summary printed at exit. *)

val render_json :
  stats ->
  shards:Rio_serve.Shard.t array ->
  config ->
  wall_s:float ->
  gc:Gc.stat ->
  string
(** The [riommu-serve-net/1] stats JSON: counters, one [net/<op>]
    cycle-percentile group per op, {!Rio_serve.Server.bprint_tenants}
    and last {!Rio_serve.Server.bprint_gc} of [gc] (the caller reads
    [Gc.quick_stat] once, so the rendering stays a function of its
    arguments). *)
