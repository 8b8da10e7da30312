(* The socket event loop: accept, read, decode, dispatch, flush,
   write. All protocol state lives in {!Conn}, all service state in
   {!Dispatch}/{!Shard}; what remains here is fd bookkeeping, the
   flush cadence, and (with [domains > 1]) the traffic between the IO
   domain and the shard executors.

   Readiness comes from one fixed poll(2) set ({!Rio_poll.Poll_raw}),
   sized at start-up: entry 0 is the listener, the next [nexec] are
   the executor wake pipes, and entry [conn_base + slot] is connection
   [slot]. A free slot is a hole (fd -1), which poll(2) skips, so the
   slot is the poll index and nothing is ever compacted; only
   interest *changes* are re-programmed. Connections live in parallel
   arrays indexed by that slot (also the {!Cell.q_slot} lane), with a
   free-slot stack; a slot is recycled only when its connection is
   dead AND no ring cell still references it.

   With [domains = 1] the decoded batches execute inline on this
   thread ({!Dispatch.flush_all}). With [domains = N > 1], N executor
   domains each own a contiguous slice of the shard array; flushes
   pack batch slots into request cells pushed onto the owning
   executor's SPSC ring, and response cells drain back here to be
   encoded into the owning connection's write buffer. Both run the
   same op body ({!Executor.exec}) and encoder ({!Dispatch.complete}).
   Executors wake a poll-parked loop through a self-pipe.

   Wall-clock time is injected ([config.now_s]): the determinism lint
   bans Unix.gettimeofday from lib/, and keeping the clock a caller
   concern means everything here stays mockable. *)

type addr = Unix_path of string | Tcp of string * int

let parse_addr s =
  let prefix p = String.length s > String.length p
                 && String.sub s 0 (String.length p) = p in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefix "unix:" then Ok (Unix_path (after "unix:"))
  else begin
    let hp = if prefix "tcp:" then after "tcp:" else s in
    match String.rindex_opt hp ':' with
    | None -> Error (Printf.sprintf "bad address %S: want unix:PATH or HOST:PORT" s)
    | Some i -> (
        let host = String.sub hp 0 i in
        let port = String.sub hp (i + 1) (String.length hp - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 ->
            Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
        | _ -> Error (Printf.sprintf "bad port in address %S" s))
  end

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

type config = {
  addr : addr;
  batch : int;
  window : int;
  sg_limit : int;
  max_conns : int;
  domains : int;
  now_s : unit -> float;
  tick_every_s : float;
}

let default_config ~addr =
  {
    addr;
    batch = 64;
    window = 128;
    sg_limit = 16;
    max_conns = 64;
    domains = 1;
    now_s = (fun () -> 0.);
    tick_every_s = 0.;
  }

type stats = {
  domains : int;
  domain_ops : int array;
  mutable accepted : int;
  mutable refused : int;
  mutable closed : int;
  mutable requests : int;
  mutable responses : int;
  mutable protocol_errors : int;
  mutable batch_flushes : int;
  mutable rejected : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

let inet_addr_of host =
  if host = "localhost" then Unix.inet_addr_loopback
  else Unix.inet_addr_of_string host

let listen_on = function
  | Unix_path p ->
      (try Unix.unlink p with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX p);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet_addr_of host, port));
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      fd

let close_listener cfg fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match cfg.addr with
  | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

module Poll_raw = Rio_poll.Poll_raw
module Shard = Rio_serve.Shard
module Histogram = Rio_serve.Histogram

let sum_shards shards f = Array.fold_left (fun a s -> a + f s) 0 shards

let effective_domains ~domains ~nshards =
  let d = if domains < 1 then 1 else domains in
  if d > nshards then nshards else d

let serve ?stop ?(on_tick = fun (_ : stats) -> ()) ~shards (cfg : config) =
  let nshards = Array.length shards in
  let domains_eff = effective_domains ~domains:cfg.domains ~nshards in
  let nexec = if domains_eff > 1 then domains_eff else 0 in
  let cap = if cfg.max_conns < 1 then 1 else cfg.max_conns in
  let stats =
    {
      domains = domains_eff;
      domain_ops = Array.make nexec 0;
      accepted = 0;
      refused = 0;
      closed = 0;
      requests = 0;
      responses = 0;
      protocol_errors = 0;
      batch_flushes = 0;
      rejected = 0;
      bytes_in = 0;
      bytes_out = 0;
    }
  in
  let d =
    Dispatch.create ~shards ~batch:cfg.batch ~sg_limit:cfg.sg_limit ()
  in
  let rsp_max = Wire.max_response_bytes ~sg_limit:cfg.sg_limit in
  (* stats requests are answered here, outside the dispatcher's
     executed/rejected counters, so they need their own tally for the
     responses total to balance the requests total. With executors
     running, the shard counters read here are single-writer plain
     ints mutated on another domain: a stale value, never a torn one
     (DESIGN.md §15). *)
  let stats_answered = ref 0 in
  Dispatch.set_stats_cb d (fun conn req_id ->
      let off = Conn.reserve conn rsp_max in
      if off < 0 then Conn.kill conn
      else begin
        incr stats_answered;
        Conn.commit conn
          (Wire.encode_stats_ok (Conn.wbuf conn) ~pos:off ~req_id
             ~ops:(sum_shards shards Shard.total_ops)
             ~requests:stats.requests ~conns:stats.accepted
             ~errors:stats.protocol_errors
             ~faults:(sum_shards shards Shard.faults));
        Conn.completed conn
      end);
  let lfd = listen_on cfg.addr in
  (* connection slot table; slot [s] polls at entry [conn_base + s] *)
  let dummy =
    Conn.create ~rbuf_bytes:(Wire.max_request_bytes ~sg_limit:1) ~window:1
      ~sg_limit:1 ()
  in
  Conn.kill dummy;
  let c_conn = Array.make cap dummy in
  let c_fd = Array.make cap Unix.stdin in
  (* a free slot holds [dummy] *)
  let active slot = c_conn.(slot) != dummy in
  let c_interest = Array.make cap 0 in
  let c_outstanding = Array.make cap 0 in
  let free = Array.init cap (fun i -> cap - 1 - i) in
  let free_top = ref cap in
  let conn_base = 1 + nexec in
  let ps = Poll_raw.create ~cap:(conn_base + cap) in
  (* slots ever used (a high-water mark): entries past it are holes,
     so neither poll(2) nor the slot sweeps look beyond it *)
  let n_used = ref 0 in
  Poll_raw.set ps ~idx:0 ~fd:lfd ~events:Poll_raw.ev_in;
  (* executor topology: executor e owns the contiguous shard slice
     { sh | sh * nexec / nshards = e } *)
  let exec_of_shard = Array.init nshards (fun sh -> sh * nexec / nshards) in
  let ring_cap =
    let want = cap * cfg.window in
    let want = if want < 1024 then 1024 else want in
    if want > 8192 then 8192 else want
  in
  let pipes = Array.init nexec (fun _ ->
      let rfd, wfd = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock rfd;
      Unix.set_nonblock wfd;
      (rfd, wfd))
  in
  let executors =
    Array.init nexec (fun e ->
        Executor.create ~shards ~sg_limit:cfg.sg_limit ~ring_cap
          ~wake_fd:(snd pipes.(e)))
  in
  Array.iteri
    (fun e (rfd, _) -> Poll_raw.set ps ~idx:(1 + e) ~fd:rfd ~events:Poll_raw.ev_in)
    pipes;
  let handles =
    Array.map (fun ex -> Domain.spawn (fun () -> Executor.run ex))
      executors
  in
  let req = Wire.create_req ~sg_limit:cfg.sg_limit in
  let req_cell = Array.make (Cell.req_width ~sg_limit:cfg.sg_limit) 0 in
  let rsp_cell = Array.make (Cell.rsp_width ~sg_limit:cfg.sg_limit) 0 in
  let pipe_buf = Bytes.create 64 in
  let stopped () = match stop with Some f -> Rio_exec.Flag.get f | None -> false in
  (* ---- multi-domain plumbing ---- *)
  let drain_rsp_rings () =
    for e = 0 to nexec - 1 do
      let ring = Executor.response_ring executors.(e) in
      while Spsc.try_pop ring ~dst:rsp_cell do
        let slot = rsp_cell.(Cell.r_slot) in
        c_outstanding.(slot) <- c_outstanding.(slot) - 1;
        let c = c_conn.(slot) in
        (* a dead conn keeps its slot until outstanding hits 0, so
           this response still resolves to the right connection — we
           just drop the encode *)
        if Conn.alive c then Dispatch.complete d c ~cell:rsp_cell
      done
    done
  in
  (* [emit] must not fail (flush_cells contract): a full request ring
     means the executor is behind, so drain responses (unblocking it
     if it is parked on a full response ring) and retry. *)
  let emit ~shard =
    let ring = Executor.request_ring executors.(exec_of_shard.(shard)) in
    let slot = req_cell.(Cell.q_slot) in
    while not (Spsc.try_push ring ~src:req_cell) do
      drain_rsp_rings ();
      Domain.cpu_relax ()
    done;
    c_outstanding.(slot) <- c_outstanding.(slot) + 1
  in
  let flush () =
    if nexec = 0 then Dispatch.flush_all d
    else Dispatch.flush_cells d ~cell:req_cell ~emit
  in
  let drain_pipe fd =
    let continue = ref true in
    while !continue do
      match Unix.read fd pipe_buf 0 (Bytes.length pipe_buf) with
      | 0 -> continue := false
      | _ -> ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> continue := false
    done
  in
  (* ---- accepting under fd exhaustion ----
     When the process (EMFILE) or the system (ENFILE) runs out of
     descriptors, the waiting client stays queued and the listener stays
     readable, so retrying on the next wakeup would spin poll(2). One
     descriptor is held in reserve instead: releasing it lets the loop
     accept the client and close it at once (refused: it reads EOF).
     When that cannot work (no reserve, or ENOBUFS/ENOMEM), the listener
     entry becomes a hole until [reap] frees a slot or a wait times out
     idle. *)
  let open_spare () =
    match Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | fd -> Some fd
    | exception Unix.Unix_error _ -> None
  in
  let spare = ref (open_spare ()) in
  let listening = ref true in
  let pause_listener () =
    Poll_raw.clear ps ~idx:0;
    listening := false
  in
  let resume_listener () =
    if not !listening then begin
      if !spare = None then spare := open_spare ();
      Poll_raw.set ps ~idx:0 ~fd:lfd ~events:Poll_raw.ev_in;
      listening := true
    end
  in
  (* Refuse one waiting client through the reserve descriptor: [true]
     if one was refused and more may wait. *)
  let shed_one () =
    match !spare with
    | None ->
        pause_listener ();
        false
    | Some fd ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        let shed =
          match Unix.accept ~cloexec:true lfd with
          | cfd, _ ->
              (try Unix.close cfd with Unix.Unix_error _ -> ());
              stats.refused <- stats.refused + 1;
              true
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            ->
              false
          | exception Unix.Unix_error _ ->
              pause_listener ();
              false
        in
        spare := open_spare ();
        shed
  in
  (* ---- per-connection handlers ---- *)
  let accept_all () =
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
          if !free_top = 0 then begin
            (try Unix.close fd with Unix.Unix_error _ -> ());
            stats.refused <- stats.refused + 1
          end
          else begin
            Unix.set_nonblock fd;
            (try Unix.setsockopt fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
            decr free_top;
            let slot = free.(!free_top) in
            let c = Conn.create ~window:cfg.window ~sg_limit:cfg.sg_limit () in
            Conn.set_token c slot;
            c_conn.(slot) <- c;
            c_fd.(slot) <- fd;
            c_outstanding.(slot) <- 0;
            Poll_raw.set ps ~idx:(conn_base + slot) ~fd ~events:Poll_raw.ev_in;
            c_interest.(slot) <- Poll_raw.ev_in;
            if slot >= !n_used then n_used := slot + 1;
            stats.accepted <- stats.accepted + 1
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception
          Unix.Unix_error
            ((Unix.EINTR | Unix.ECONNABORTED | Unix.EUNKNOWNERR _), _, _) ->
          (* interrupted, or the client left before we took it: the
             constructor-less errors accept(2) returns (EPROTO, ENONET)
             all concern that one pending connection *)
          ()
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          continue := shed_one ()
      | exception Unix.Unix_error ((Unix.ENOBUFS | Unix.ENOMEM), _, _) ->
          pause_listener ();
          continue := false
    done
  in
  (* Decode everything admissible out of a connection's read buffer.
     A [false] from enqueue means the target shard's batch is full:
     flush everything (amortized work is the point of the batch) and
     retry — the retry cannot fail on a fresh batch. *)
  let drain_decoded conn =
    let continue = ref true in
    while !continue && Conn.can_admit conn do
      let rr = Conn.next conn req in
      if rr > 0 then begin
        stats.requests <- stats.requests + 1;
        if not (Dispatch.enqueue d conn req) then begin
          flush ();
          ignore (Dispatch.enqueue d conn req : bool)
        end
      end
      else begin
        if rr < 0 then stats.protocol_errors <- stats.protocol_errors + 1;
        continue := false
      end
    done
  in
  let handle_read slot =
    let conn = c_conn.(slot) in
    let cap = Conn.read_capacity conn in
    if cap > 0 then begin
      match
        Unix.read c_fd.(slot) (Conn.rbuf conn) (Conn.read_offset conn) cap
      with
      | 0 -> Conn.kill conn
      | n ->
          stats.bytes_in <- stats.bytes_in + n;
          Conn.fed conn n;
          drain_decoded conn
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          Conn.kill conn
    end
  in
  let handle_write slot =
    let conn = c_conn.(slot) in
    let q = Conn.queued conn in
    if q > 0 then begin
      match Unix.single_write c_fd.(slot) (Conn.wbuf conn) (Conn.wpos conn) q with
      | n ->
          stats.bytes_out <- stats.bytes_out + n;
          Conn.consumed conn n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          Conn.kill conn
    end
  in
  (* One sweep over the last wait's ready bits, by index range. Reads
     are handled as they surface; writes wait for the post-flush pass
     so freshly encoded responses ride the same write call. *)
  let dispatch_ready () =
    if Poll_raw.revents ps ~idx:0 <> 0 then accept_all ();
    for e = 0 to nexec - 1 do
      if Poll_raw.revents ps ~idx:(1 + e) <> 0 then drain_pipe (fst pipes.(e))
    done;
    for slot = 0 to !n_used - 1 do
      let bits = Poll_raw.revents ps ~idx:(conn_base + slot) in
      if bits land Poll_raw.ev_in <> 0 then handle_read slot
      else if bits land Poll_raw.ev_err <> 0 then
        (* hangup/error with nothing readable: the peer is gone and
           queued responses are undeliverable *)
        Conn.kill c_conn.(slot)
    done
  in
  let reap () =
    let closed = stats.closed in
    for slot = 0 to !n_used - 1 do
      if
        active slot
        && (not (Conn.alive c_conn.(slot)))
        && c_outstanding.(slot) = 0
      then begin
        Poll_raw.clear ps ~idx:(conn_base + slot);
        (try Unix.close c_fd.(slot) with Unix.Unix_error _ -> ());
        c_conn.(slot) <- dummy;
        free.(!free_top) <- slot;
        incr free_top;
        stats.closed <- stats.closed + 1
      end
    done;
    if stats.closed > closed then resume_listener ()
  in
  let arm_interest () =
    for slot = 0 to !n_used - 1 do
      if active slot then begin
        let c = c_conn.(slot) in
        let bits =
          (if Conn.want_read c then Poll_raw.ev_in else 0)
          lor if Conn.want_write c then Poll_raw.ev_out else 0
        in
        if bits <> c_interest.(slot) then begin
          c_interest.(slot) <- bits;
          Poll_raw.set ps ~idx:(conn_base + slot) ~fd:c_fd.(slot) ~events:bits
        end
      end
    done
  in
  (* the counters [Dispatch] and the executors keep themselves *)
  let refresh_stats () =
    stats.responses <- Dispatch.executed d + Dispatch.rejected d + !stats_answered;
    stats.batch_flushes <- Dispatch.flushes d;
    stats.rejected <- Dispatch.rejected d;
    for e = 0 to nexec - 1 do
      stats.domain_ops.(e) <- Executor.executed executors.(e)
    done
  in
  let last_tick = ref (cfg.now_s ()) in
  while not (stopped ()) do
    let ready = Poll_raw.wait ps ~n:(conn_base + !n_used) ~timeout_ms:50 in
    if ready = 0 then resume_listener ();
    dispatch_ready ();
    (* One flush per wakeup: everything decoded this iteration
       executes (inline, or via the rings) in shard-ordered batches. *)
    flush ();
    if nexec > 0 then drain_rsp_rings ();
    (* Opportunistic writes for freshly encoded responses; a write on
       a momentarily full socket just re-arms write interest. *)
    for slot = 0 to !n_used - 1 do
      if active slot && Conn.want_write c_conn.(slot) then
        handle_write slot
    done;
    reap ();
    arm_interest ();
    if cfg.tick_every_s > 0. then begin
      let now = cfg.now_s () in
      if now -. !last_tick >= cfg.tick_every_s then begin
        last_tick := now;
        refresh_stats ();
        on_tick stats
      end
    end
  done;
  (* Graceful shutdown: execute what is batched; with executors, wait
     for every in-flight cell to come home, then stop and join the
     domains; best-effort drain each connection's queued responses;
     close everything. *)
  flush ();
  if nexec > 0 then begin
    let outstanding () = Array.fold_left ( + ) 0 c_outstanding in
    while outstanding () > 0 do
      drain_rsp_rings ();
      Domain.cpu_relax ()
    done;
    Array.iter Executor.request_stop executors;
    Array.iter Domain.join handles;
    drain_rsp_rings ()
  end;
  for slot = 0 to !n_used - 1 do
    if active slot then begin
      let c = c_conn.(slot) in
      let tries = ref 8 in
      while Conn.queued c > 0 && !tries > 0 && Conn.alive c do
        decr tries;
        handle_write slot;
        if Conn.queued c > 0 && !tries > 0 then Unix.sleepf 0.05
      done;
      (try Unix.close c_fd.(slot) with Unix.Unix_error _ -> ());
      stats.closed <- stats.closed + 1
    end
  done;
  Array.iter
    (fun (rfd, wfd) ->
      (try Unix.close rfd with Unix.Unix_error _ -> ());
      try Unix.close wfd with Unix.Unix_error _ -> ())
    pipes;
  close_listener cfg lfd;
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !spare;
  refresh_stats ();
  stats

(* {1 The final report} *)

let realized_batch (s : stats) =
  if s.batch_flushes > 0 then
    float_of_int s.responses /. float_of_int s.batch_flushes
  else 0.

let render_summary (s : stats) ~shards (cfg : config) ~wall_s =
  let b = Buffer.create 512 in
  Printf.bprintf b "riommu-serve --listen %s\n  domains %d  max-conns %d\n"
    (addr_to_string cfg.addr) s.domains cfg.max_conns;
  if Array.length s.domain_ops > 0 then begin
    Buffer.add_string b "  domain ops:";
    Array.iteri (fun e n -> Printf.bprintf b " d%d %d" e n) s.domain_ops;
    Buffer.add_char b '\n'
  end;
  Printf.bprintf b
    "  wall %.2fs  conns %d (refused %d, protocol errors %d)\n\
    \  requests %d  responses %d  rejected %d\n\
    \  batch flushes %d (realized batch %.1f)\n\
    \  ops:"
    wall_s s.accepted s.refused s.protocol_errors s.requests s.responses
    s.rejected s.batch_flushes (realized_batch s);
  for k = 0 to Shard.op_count - 1 do
    let op = Shard.op_of_index k in
    Printf.bprintf b " %s %d" (Shard.op_name op)
      (sum_shards shards (fun sh -> Shard.ops sh op))
  done;
  Printf.bprintf b "  (total %d, faults %d)\n  bytes in %d out %d\n"
    (sum_shards shards Shard.total_ops)
    (sum_shards shards Shard.faults)
    s.bytes_in s.bytes_out;
  Buffer.contents b

let render_json (s : stats) ~shards (cfg : config) ~wall_s ~gc =
  let b = Buffer.create 4096 in
  let ops = sum_shards shards Shard.total_ops in
  Printf.bprintf b
    "{\n\
    \  \"schema\": \"riommu-serve-net/1\",\n\
    \  \"addr\": %S,\n\
    \  \"shards\": %d, \"batch\": %d, \"window\": %d,\n\
    \  \"domains\": %d,\n\
    \  \"domain_ops\": [%s],\n\
    \  \"wall_s\": %.6f,\n\
    \  \"ops\": %d,\n\
    \  \"ops_per_sec\": %.1f,\n\
    \  \"requests\": %d, \"responses\": %d, \"rejected\": %d,\n\
    \  \"accepted\": %d, \"refused\": %d, \"closed\": %d, \"protocol_errors\": %d,\n\
    \  \"batch_flushes\": %d, \"realized_batch\": %.2f,\n\
    \  \"bytes_in\": %d, \"bytes_out\": %d,\n\
    \  \"faults\": %d,\n\
    \  \"groups\": [\n"
    (addr_to_string cfg.addr) (Array.length shards) cfg.batch cfg.window
    s.domains
    (String.concat ", " (Array.to_list (Array.map string_of_int s.domain_ops)))
    wall_s ops
    (if wall_s > 0. then float_of_int ops /. wall_s else 0.)
    s.requests s.responses s.rejected s.accepted s.refused s.closed
    s.protocol_errors s.batch_flushes (realized_batch s) s.bytes_in
    s.bytes_out
    (sum_shards shards Shard.faults);
  for k = 0 to Shard.op_count - 1 do
    let op = Shard.op_of_index k in
    let h = Histogram.create () in
    Array.iter (fun sh -> Histogram.merge_into ~dst:h (Shard.hist sh op)) shards;
    Printf.bprintf b
      "    { \"name\": \"net/%s\", \"iters\": %d, \"p50_cycles\": %d, \
       \"p99_cycles\": %d, \"p999_cycles\": %d, \"max_cycles\": %d }%s\n"
      (Shard.op_name op) (Histogram.count h) (Histogram.quantile h 0.5)
      (Histogram.quantile h 0.99) (Histogram.quantile h 0.999)
      (Histogram.max_recorded h)
      (if k < Shard.op_count - 1 then "," else "")
  done;
  Buffer.add_string b "  ],\n";
  let tenants = Array.fold_left (fun a sh -> max a (Shard.tenants sh)) 0 shards in
  Rio_serve.Server.bprint_tenants b
    (Rio_serve.Server.tenant_stats_of shards ~tenants);
  Buffer.add_string b ",\n";
  Rio_serve.Server.bprint_gc b gc;
  Buffer.add_string b "\n}\n";
  Buffer.contents b
