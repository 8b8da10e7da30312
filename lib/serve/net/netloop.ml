(* The socket event loop: accept, read, decode, dispatch, flush,
   write. All protocol state lives in {!Conn}, all service state in
   {!Dispatch}/{!Shard}; what remains here is fd bookkeeping, the
   flush cadence, and (with [domains > 1]) the traffic between the IO
   domain and the shard executors.

   Readiness comes from {!Readiness} (poll(2)): fds register once
   into a slot table and only interest *changes* are re-armed.
   Connections live in parallel arrays indexed by a slot (the
   readiness token and the {!Cell.q_slot} lane), with a free-slot
   stack; a slot is recycled only when its connection is dead AND no
   ring cell still references it.

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
  max_tenants : int;
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
    max_tenants = 4096;
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

(* Readiness tokens: conn slots are >= 0, the listener and the
   executor wake pipes get negative tokens. *)
let tok_listener = -1
let tok_pipe e = -2 - e
let pipe_of_tok tok = -2 - tok

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
    Dispatch.create ~shards ~batch:cfg.batch ~sg_limit:cfg.sg_limit
      ~max_tenants:cfg.max_tenants ()
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
        let ops = Array.fold_left (fun a s -> a + Rio_serve.Shard.total_ops s) 0 shards in
        let faults = Array.fold_left (fun a s -> a + Rio_serve.Shard.faults s) 0 shards in
        Conn.commit conn
          (Wire.encode_stats_ok (Conn.wbuf conn) ~pos:off ~req_id ~ops
             ~requests:stats.requests ~conns:stats.accepted
             ~errors:stats.protocol_errors ~faults);
        Conn.completed conn
      end);
  let lfd = listen_on cfg.addr in
  let r = Readiness.create () in
  let _lhandle = Readiness.register r lfd ~token:tok_listener in
  Readiness.interest r ~handle:_lhandle ~read:true ~write:false;
  (* connection slot table *)
  let dummy =
    Conn.create ~rbuf_bytes:(Wire.max_request_bytes ~sg_limit:1) ~window:1
      ~sg_limit:1 ()
  in
  Conn.kill dummy;
  let c_conn = Array.make cap dummy in
  let c_fd = Array.make cap Unix.stdin in
  let c_handle = Array.make cap (-1) in
  let c_active = Array.make cap false in
  let c_interest = Array.make cap 0 in
  let c_outstanding = Array.make cap 0 in
  let free = Array.init cap (fun i -> cap - 1 - i) in
  let free_top = ref cap in
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
    (fun e (rfd, _) ->
      let h = Readiness.register r rfd ~token:(tok_pipe e) in
      Readiness.interest r ~handle:h ~read:true ~write:false)
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
            c_active.(slot) <- true;
            c_outstanding.(slot) <- 0;
            c_handle.(slot) <- Readiness.register r fd ~token:slot;
            Readiness.interest r ~handle:c_handle.(slot) ~read:true
              ~write:false;
            c_interest.(slot) <- Readiness.ev_read;
            stats.accepted <- stats.accepted + 1
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
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
  (* Readiness callback (allocated once): reads are handled as they
     surface; writes wait for the post-flush pass so freshly encoded
     responses ride the same write call. *)
  let on_ready token bits =
    if token >= 0 then begin
      if bits land Readiness.ev_read <> 0 then handle_read token
      else if bits land Readiness.ev_err <> 0 then
        (* hangup/error with nothing readable: the peer is gone and
           queued responses are undeliverable *)
        Conn.kill c_conn.(token)
    end
    else if token = tok_listener then accept_all ()
    else drain_pipe (fst pipes.(pipe_of_tok token))
  in
  let reap () =
    for slot = 0 to cap - 1 do
      if
        c_active.(slot)
        && (not (Conn.alive c_conn.(slot)))
        && c_outstanding.(slot) = 0
      then begin
        Readiness.unregister r ~handle:c_handle.(slot);
        (try Unix.close c_fd.(slot) with Unix.Unix_error _ -> ());
        c_active.(slot) <- false;
        c_conn.(slot) <- dummy;
        c_handle.(slot) <- -1;
        free.(!free_top) <- slot;
        incr free_top;
        stats.closed <- stats.closed + 1
      end
    done
  in
  let arm_interest () =
    for slot = 0 to cap - 1 do
      if c_active.(slot) then begin
        let c = c_conn.(slot) in
        let bits =
          (if Conn.want_read c then Readiness.ev_read else 0)
          lor if Conn.want_write c then Readiness.ev_write else 0
        in
        if bits <> c_interest.(slot) then begin
          c_interest.(slot) <- bits;
          Readiness.interest r ~handle:c_handle.(slot)
            ~read:(bits land Readiness.ev_read <> 0)
            ~write:(bits land Readiness.ev_write <> 0)
        end
      end
    done
  in
  let refresh_domain_ops () =
    for e = 0 to nexec - 1 do
      stats.domain_ops.(e) <- Executor.executed executors.(e)
    done
  in
  let last_tick = ref (cfg.now_s ()) in
  while not (stopped ()) do
    ignore (Readiness.wait r ~timeout_ms:50 : int);
    Readiness.iter_ready r on_ready;
    (* One flush per wakeup: everything decoded this iteration
       executes (inline, or via the rings) in shard-ordered batches. *)
    flush ();
    if nexec > 0 then drain_rsp_rings ();
    (* Opportunistic writes for freshly encoded responses; a write on
       a momentarily full socket just re-arms write interest. *)
    for slot = 0 to cap - 1 do
      if c_active.(slot) && Conn.want_write c_conn.(slot) then
        handle_write slot
    done;
    reap ();
    arm_interest ();
    if cfg.tick_every_s > 0. then begin
      let now = cfg.now_s () in
      if now -. !last_tick >= cfg.tick_every_s then begin
        last_tick := now;
        stats.responses <- Dispatch.executed d + Dispatch.rejected d + !stats_answered;
        stats.batch_flushes <- Dispatch.flushes d;
        stats.rejected <- Dispatch.rejected d;
        refresh_domain_ops ();
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
  for slot = 0 to cap - 1 do
    if c_active.(slot) then begin
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
  stats.responses <- Dispatch.executed d + Dispatch.rejected d + !stats_answered;
  stats.batch_flushes <- Dispatch.flushes d;
  stats.rejected <- Dispatch.rejected d;
  refresh_domain_ops ();
  stats
