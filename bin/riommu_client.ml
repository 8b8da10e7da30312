(* riommu-client: socket load generator and wall-clock benchmark for
   riommu-serve --listen.

     riommu-client --connect ADDR [--conns N] [--duration S] [--batch N]
                   [--sweep LIST] [--tenants N] [--pages N] [--mix M]
                   [--json FILE]

   Each connection speaks riommu-wire/1: hello, then a setup phase
   that maps --pages pages for its tenant, then closed-loop batches of
   --batch pipelined requests until the wall deadline. Throughput is
   steady-state responses per wall second aggregated over connections;
   latency is per-response sojourn from the batch's send instant, so
   the batch-size sweep shows the amortization trade directly:
   batched ops/s strictly above batch=1, batched p50 above it too.

   --sweep runs one segment per batch size over fresh connections. *)

open Cmdliner
module Wire = Rio_serve_net.Wire
module Netloop = Rio_serve_net.Netloop
module Histogram = Rio_serve.Histogram

(* Reconnect: the transport dropped (ECONNRESET/EPIPE/EOF) outside
   Drain; the conn sits out of the fd sets until its backoff deadline,
   then dials again and re-runs setup from scratch. Remapping is the
   only safe resume: if the server restarted, every pre-drop iova is
   dead, and if it stayed up the extra mappings are harmless. *)
type mode = Setup | Steady | Drain | Done | Reconnect

type conn = {
  mutable fd : Unix.file_descr;
  idx : int;
  tenant : int;
  iovas : int array;
  mutable mapped : int;
  mutable setup_sent : int;
  rbuf : Bytes.t;
  mutable rpos : int;
  mutable rlen : int;
  wbuf : Bytes.t;
  mutable wpos : int;
  mutable wlen : int;
  mutable outstanding : int;
  mutable mode : mode;
  mutable t0 : float;  (* send instant of the in-flight batch *)
  mutable rng : int;
  mutable seq : int;
  mutable phys_next : int;
  mutable ops : int;  (* steady-state responses *)
  mutable errors : int;  (* non-ok statuses *)
  (* ring of extra iovas mapped during a mixed-load run, unmapped by
     later batches *)
  ring : int array;
  mutable ring_n : int;
  (* reconnect bookkeeping *)
  mutable retries : int;  (* successful redials this segment *)
  mutable attempts : int;
      (* failed dials (refused, or closed unanswered) since the last
         answered connection *)
  mutable answered : bool;  (* a response arrived on this connection *)
  mutable backoff : float;  (* capped exponential, seconds *)
  mutable next_retry : float;  (* wall deadline for the next dial *)
}

(* 48-bit LCG (java.util.Random constants) — fits a 63-bit int. *)
let lcg c =
  c.rng <- ((c.rng * 0x5DEECE66D) + 0xB) land ((1 lsl 48) - 1);
  c.rng lsr 16

let connect_to addr =
  match addr with
  | Netloop.Unix_path p ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX p);
      fd
  | Netloop.Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      let ip =
        if host = "localhost" then Unix.inet_addr_loopback
        else Unix.inet_addr_of_string host
      in
      Unix.connect fd (Unix.ADDR_INET (ip, port));
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      fd

let make_conn addr ~idx ~tenant ~pages ~batch ~seed =
  let fd = connect_to addr in
  Unix.set_nonblock fd;
  let wcap =
    (* hello + a full batch (or setup chunk) of maximal requests *)
    let slots = if batch > 64 then batch + 4 else 68 in
    Wire.hello_bytes + (slots * Wire.max_request_bytes ~sg_limit:8)
  in
  let rcap =
    let per = Wire.max_response_bytes ~sg_limit:8 in
    let n = (batch + 4) * per in
    if n > 65536 then n else 65536
  in
  let c =
    {
      fd;
      idx;
      tenant;
      iovas = Array.make pages 0;
      mapped = 0;
      setup_sent = 0;
      rbuf = Bytes.create rcap;
      rpos = 0;
      rlen = 0;
      wbuf = Bytes.create wcap;
      wpos = 0;
      wlen = 0;
      outstanding = 0;
      mode = Setup;
      t0 = 0.;
      rng = seed + (idx * 0x9E3779B1) + 1;
      seq = 0;
      phys_next = (idx + 1) * 0x1000_0000;
      ops = 0;
      errors = 0;
      ring = Array.make 1024 0;
      ring_n = 0;
      retries = 0;
      attempts = 0;
      answered = false;
      backoff = 0.01;
      next_retry = 0.;
    }
  in
  c.wlen <- Wire.encode_hello c.wbuf ~pos:0 ~bdf:(0x100 + idx) ~flags:0;
  c

let queued c = c.wlen - c.wpos

(* Returns false when the transport is gone (RST/EPIPE), so the caller
   can route the conn into reconnect instead of aborting the sweep. *)
let flush_write c =
  let q = queued c in
  if q = 0 then true
  else begin
    match Unix.single_write c.fd c.wbuf c.wpos q with
    | n ->
        c.wpos <- c.wpos + n;
        if c.wpos = c.wlen then begin
          c.wpos <- 0;
          c.wlen <- 0
        end;
        true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> true
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false
  end

let next_phys c =
  let p = c.phys_next in
  c.phys_next <- c.phys_next + 4096;
  p

(* Setup: map pages in chunks so we never exceed the server's window. *)
let setup_chunk = 64

let send_setup_chunk c =
  let n = min setup_chunk (Array.length c.iovas - c.setup_sent) in
  let p = ref c.wlen in
  for _ = 1 to n do
    c.seq <- c.seq + 1;
    p :=
      Wire.encode_map c.wbuf ~pos:!p ~tenant:c.tenant ~req_id:c.seq
        ~phys:(next_phys c) ~bytes:4096
  done;
  c.wlen <- !p;
  c.setup_sent <- c.setup_sent + n;
  c.outstanding <- c.outstanding + n

(* One steady-state batch. Mix "translate": pure translate over the
   premapped pages. Mix "mixed": slot 0 maps a fresh page, slot 1
   unmaps a previously mixed-in page when one is available, the rest
   translate — every wire op exercised while translate dominates. *)
let send_batch c ~batch ~mixed ~now =
  let p = ref c.wlen in
  for j = 0 to batch - 1 do
    c.seq <- c.seq + 1;
    if mixed && j = 0 then
      p :=
        Wire.encode_map c.wbuf ~pos:!p ~tenant:c.tenant ~req_id:c.seq
          ~phys:(next_phys c) ~bytes:4096
    else if mixed && j = 1 && c.ring_n > 0 then begin
      c.ring_n <- c.ring_n - 1;
      p :=
        Wire.encode_unmap c.wbuf ~pos:!p ~tenant:c.tenant ~req_id:c.seq
          ~iova:c.ring.(c.ring_n)
    end
    else begin
      let iova = c.iovas.(lcg c mod c.mapped) in
      p :=
        Wire.encode_translate c.wbuf ~pos:!p ~tenant:c.tenant ~req_id:c.seq
          ~iova ~write:false
    end
  done;
  c.wlen <- !p;
  c.outstanding <- c.outstanding + batch;
  c.t0 <- now

(* Drain every decodable response; returns false on EOF/reset. *)
let handle_responses c resp ~hist ~recording ~now =
  let alive = ref true in
  let continue = ref true in
  while !continue do
    let avail = c.rlen - c.rpos in
    let r = Wire.decode_response c.rbuf ~pos:c.rpos ~avail resp in
    if r > 0 then begin
      c.rpos <- c.rpos + r;
      c.outstanding <- c.outstanding - 1;
      c.answered <- true;
      (match c.mode with
      | Setup ->
          if resp.Wire.r_op = Wire.op_map then
            if resp.Wire.status = Wire.st_ok then begin
              c.iovas.(c.mapped) <- resp.Wire.r_iova;
              c.mapped <- c.mapped + 1
            end
            else c.errors <- c.errors + 1
      | Steady | Drain ->
          if resp.Wire.status = Wire.st_ok then begin
            c.ops <- c.ops + 1;
            if recording then
              Histogram.record hist
                (int_of_float ((now -. c.t0) *. 1e9))
          end
          else c.errors <- c.errors + 1;
          if resp.Wire.r_op = Wire.op_map && resp.Wire.status = Wire.st_ok
             && c.ring_n < Array.length c.ring
          then begin
            c.ring.(c.ring_n) <- resp.Wire.r_iova;
            c.ring_n <- c.ring_n + 1
          end
      | Done | Reconnect -> ())
    end
    else if r = 0 then begin
      continue := false;
      (* compact *)
      if c.rpos > 0 then begin
        Bytes.blit c.rbuf c.rpos c.rbuf 0 (c.rlen - c.rpos);
        c.rlen <- c.rlen - c.rpos;
        c.rpos <- 0
      end
    end
    else begin
      Printf.eprintf "riommu-client: protocol error from server (%s)\n%!"
        (Wire.error_name (Wire.error_of_code r));
      alive := false;
      continue := false
    end
  done;
  !alive

let handle_read c resp ~hist ~recording ~now =
  let cap = Bytes.length c.rbuf - c.rlen in
  if cap = 0 then handle_responses c resp ~hist ~recording ~now
  else begin
    match Unix.read c.fd c.rbuf c.rlen cap with
    | 0 -> false
    | n ->
        c.rlen <- c.rlen + n;
        handle_responses c resp ~hist ~recording ~now
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> true
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false
  end

(* Synchronous stats round trip on an already-connected fd (used once,
   on the first connection, after its segment drains). *)
let fetch_stats c resp =
  Unix.clear_nonblock c.fd;
  c.seq <- c.seq + 1;
  let len = Wire.encode_stats c.wbuf ~pos:0 ~tenant:0 ~req_id:c.seq in
  let _ = Unix.write c.fd c.wbuf 0 len in
  c.rpos <- 0;
  c.rlen <- 0;
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec loop () =
    if Unix.gettimeofday () > deadline then None
    else begin
      match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
      | 0 -> None
      | n -> (
          c.rlen <- c.rlen + n;
          let r = Wire.decode_response c.rbuf ~pos:0 ~avail:c.rlen resp in
          if r > 0 && resp.Wire.r_op = Wire.op_stats then Some resp
          else if r >= 0 then loop ()
          else None)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> None
    end
  in
  loop ()

type segment_result = {
  sr_batch : int;
  sr_ops : int;
  sr_errors : int;
  sr_retries : int;
  sr_wall : float;
  sr_hist : Histogram.t;
}

(* A dropped conn gets up to [max_dials] redials with capped
   exponential backoff before it is written off. A connection the
   server closes before answering any request (a refusal at accept)
   counts as a failed dial. *)
let max_dials = 8

let run_segment ~addr ~conns:nconns ~tenants ~tenant_base ~pages ~batch
    ~duration ~mixed ~seed ~want_stats =
  let conns =
    Array.init nconns (fun i ->
        make_conn addr ~idx:i
          ~tenant:(tenant_base + (i mod tenants))
          ~pages ~batch ~seed)
  in
  let resp = Wire.create_resp ~sg_limit:8 in
  let hist = Histogram.create () in
  let kill c =
    if c.mode <> Done then begin
      c.mode <- Done;
      (try Unix.close c.fd with Unix.Unix_error _ -> ())
    end
  in
  (* One more failed dial: back off, or write the conn off. *)
  let retry_later c ~now =
    c.attempts <- c.attempts + 1;
    if c.attempts >= max_dials then
      (* fd is already closed; don't route through [kill] *)
      c.mode <- Done
    else begin
      c.backoff <- Float.min 0.5 (c.backoff *. 2.);
      c.next_retry <- now +. c.backoff
    end
  in
  (* The transport under c dropped: park the conn in Reconnect (its fd
     is closed, so it must stay out of the select sets) unless it was
     already draining, in which case its steady-state ops are counted
     and there is nothing left worth redialing for. *)
  let lose c ~now =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    match c.mode with
    | Drain | Done -> c.mode <- Done
    | Setup | Steady | Reconnect ->
        c.mode <- Reconnect;
        c.outstanding <- 0;
        c.rpos <- 0;
        c.rlen <- 0;
        c.wpos <- 0;
        c.wlen <- 0;
        if c.answered then begin
          c.attempts <- 0;
          c.backoff <- 0.01;
          c.next_retry <- now +. c.backoff
        end
        else retry_later c ~now
  in
  let redial c ~now =
    match connect_to addr with
    | fd ->
        Unix.set_nonblock fd;
        c.fd <- fd;
        c.retries <- c.retries + 1;
        c.answered <- false;
        c.wpos <- 0;
        c.wlen <- Wire.encode_hello c.wbuf ~pos:0 ~bdf:(0x100 + c.idx) ~flags:0;
        (* Re-run setup from scratch: pre-drop iovas may be dead (the
           drop may have been a server restart), so translate against
           them would just fault. Fresh maps work either way. *)
        c.mapped <- 0;
        c.setup_sent <- 0;
        c.mode <- Setup;
        send_setup_chunk c
    | exception Unix.Unix_error _ -> retry_later c ~now
  in
  let tick_reconnects ~now =
    Array.iter
      (fun c -> if c.mode = Reconnect && now >= c.next_retry then redial c ~now)
      conns
  in
  (* Phase 1: setup — map [pages] per connection. *)
  Array.iter (fun c -> send_setup_chunk c) conns;
  let setup_deadline = Unix.gettimeofday () +. 10.0 in
  let setup_pending () =
    Array.exists (fun c -> c.mode = Setup || c.mode = Reconnect) conns
  in
  while setup_pending () && Unix.gettimeofday () < setup_deadline do
    let rds =
      List.filter_map
        (fun c -> if c.mode = Setup then Some c.fd else None)
        (Array.to_list conns)
    in
    let wrs =
      List.filter_map
        (fun c -> if c.mode = Setup && queued c > 0 then Some c.fd else None)
        (Array.to_list conns)
    in
    (match Unix.select rds wrs [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        Array.iter
          (fun c ->
            if c.mode = Setup then begin
              let now = Unix.gettimeofday () in
              if List.memq c.fd writable && not (flush_write c) then
                lose c ~now
              else begin
                if List.memq c.fd readable then
                  if not (handle_read c resp ~hist ~recording:false ~now) then
                    lose c ~now;
                if c.mode = Setup && c.outstanding = 0 then
                  if c.mapped >= Array.length c.iovas then c.mode <- Steady
                  else send_setup_chunk c
              end
            end)
          conns);
    tick_reconnects ~now:(Unix.gettimeofday ())
  done;
  Array.iter
    (fun c ->
      match c.mode with
      | Setup ->
          Printf.eprintf "riommu-client: setup timed out on a connection\n%!";
          kill c
      | Reconnect ->
          Printf.eprintf "riommu-client: setup timed out on a connection\n%!";
          (* fd already closed by [lose] *)
          c.mode <- Done
      | Steady | Drain | Done -> ())
    conns;
  (* Phase 2 + 3: steady batches until the deadline, then drain. *)
  let t_start = Unix.gettimeofday () in
  let deadline = t_start +. duration in
  Array.iter
    (fun c -> if c.mode = Steady then send_batch c ~batch ~mixed ~now:t_start)
    conns;
  let live () = Array.exists (fun c -> c.mode <> Done) conns in
  let selectable c = c.mode <> Done && c.mode <> Reconnect in
  while live () do
    let rds =
      List.filter_map
        (fun c -> if selectable c then Some c.fd else None)
        (Array.to_list conns)
    in
    let wrs =
      List.filter_map
        (fun c -> if selectable c && queued c > 0 then Some c.fd else None)
        (Array.to_list conns)
    in
    (match Unix.select rds wrs [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        Array.iter
          (fun c ->
            if selectable c then begin
              let now = Unix.gettimeofday () in
              if List.memq c.fd writable && not (flush_write c) then
                lose c ~now
              else begin
                if List.memq c.fd readable then begin
                  let now = Unix.gettimeofday () in
                  if not (handle_read c resp ~hist ~recording:true ~now) then
                    lose c ~now
                end;
                if selectable c && c.outstanding = 0 && queued c = 0 then begin
                  match c.mode with
                  | Steady ->
                      if Unix.gettimeofday () < deadline then
                        send_batch c ~batch ~mixed ~now:(Unix.gettimeofday ())
                      else c.mode <- Drain
                  | Setup ->
                      (* post-redial re-setup running inside the
                         steady phase *)
                      if c.mapped >= Array.length c.iovas then c.mode <- Steady
                      else send_setup_chunk c
                  | Drain -> c.mode <- Done  (* nothing left in flight *)
                  | Done | Reconnect -> ()
                end;
                if c.mode = Drain && c.outstanding = 0 && queued c = 0 then
                  c.mode <- Done
              end
            end)
          conns);
    tick_reconnects ~now:(Unix.gettimeofday ())
  done;
  let t_end = Unix.gettimeofday () in
  (* One stats round trip, on the first connection, before closing. *)
  if want_stats then begin
    let c = conns.(0) in
    if c.errors = 0 && c.mapped > 0 then begin
      match
        (try
           let fd = connect_to addr in
           let probe =
             { c with fd; rpos = 0; rlen = 0; wpos = 0; wlen = 0; seq = 1000000 }
           in
           let hello = Wire.encode_hello probe.wbuf ~pos:0 ~bdf:0x999 ~flags:0 in
           let _ = Unix.write fd probe.wbuf 0 hello in
           let r = fetch_stats probe resp in
           (try Unix.close fd with Unix.Unix_error _ -> ());
           r
         with Unix.Unix_error _ -> None)
      with
      | Some r ->
          Printf.eprintf
            "riommu-client: server stats: ops %d requests %d conns %d errors \
             %d faults %d\n%!"
            r.Wire.s_ops r.Wire.s_requests r.Wire.s_conns r.Wire.s_errors
            r.Wire.s_faults
      | None ->
          Printf.eprintf "riommu-client: stats round trip failed\n%!"
    end
  end;
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  let ops = Array.fold_left (fun a c -> a + c.ops) 0 conns in
  let errors = Array.fold_left (fun a c -> a + c.errors) 0 conns in
  let retries = Array.fold_left (fun a c -> a + c.retries) 0 conns in
  {
    sr_batch = batch;
    sr_ops = ops;
    sr_errors = errors;
    sr_retries = retries;
    sr_wall = t_end -. t_start;
    sr_hist = hist;
  }

let client_term =
  let connect =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect"; "c" ] ~docv:"ADDR"
          ~doc:"Server address: unix:PATH, tcp:HOST:PORT or HOST:PORT.")
  in
  let conns =
    Arg.(
      value & opt int 4
      & info [ "conns" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let duration =
    Arg.(
      value & opt float 2.0
      & info [ "duration"; "d" ] ~docv:"S"
          ~doc:"Wall-clock seconds of steady-state load per batch size.")
  in
  let batch =
    Arg.(
      value & opt int 16
      & info [ "batch" ] ~docv:"N"
          ~doc:"Pipelined requests per closed-loop round trip.")
  in
  let sweep =
    Arg.(
      value
      & opt (some string) None
      & info [ "sweep" ] ~docv:"LIST"
          ~doc:
            "Comma-separated batch sizes (e.g. 1,16,64); one segment per \
             size over fresh connections. Overrides $(b,--batch).")
  in
  let tenants =
    Arg.(
      value & opt int 0
      & info [ "tenants" ] ~docv:"N"
          ~doc:
            "Distinct wire tenants to spread connections over (default: one \
             per connection).")
  in
  let tenant_base =
    Arg.(
      value & opt int 0
      & info [ "tenant-base" ] ~docv:"N"
          ~doc:
            "First tenant id to use; lets concurrent client processes \
             address disjoint tenant ranges on one server.")
  in
  let label =
    Arg.(
      value & opt string ""
      & info [ "label" ] ~docv:"S"
          ~doc:"Free-form run label echoed into the JSON output.")
  in
  let pages =
    Arg.(
      value & opt int 64
      & info [ "pages" ] ~docv:"N"
          ~doc:"Pages each connection maps up front and translates against.")
  in
  let mix =
    Arg.(
      value
      & opt (enum [ ("translate", false); ("mixed", true) ]) false
      & info [ "mix" ] ~docv:"MIX"
          ~doc:
            "Steady-state op mix: $(b,translate) (pure translate) or \
             $(b,mixed) (a map and an unmap folded into every batch).")
  in
  let seed =
    Arg.(
      value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"IOVA pick seed.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write results as riommu-client/1 JSON to $(docv); $(b,-) for \
                stdout.")
  in
  let no_stats =
    Arg.(
      value & flag
      & info [ "no-stats" ] ~doc:"Skip the final stats round trip.")
  in
  let run connect conns duration batch sweep tenants tenant_base label pages
      mixed seed json no_stats =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    match Netloop.parse_addr connect with
    | Error m ->
        prerr_endline ("riommu-client: " ^ m);
        2
    | Ok addr -> (
        let batches =
          match sweep with
          | None -> [ batch ]
          | Some s ->
              List.filter_map int_of_string_opt (String.split_on_char ',' s)
        in
        if batches = [] || List.exists (fun b -> b < 1 || b > 4096) batches
        then begin
          prerr_endline "riommu-client: bad --sweep/--batch (want 1..4096)";
          2
        end
        else if conns < 1 || pages < 1 || duration <= 0. then begin
          prerr_endline "riommu-client: bad --conns/--pages/--duration";
          2
        end
        else
          let tenants = if tenants < 1 then conns else tenants in
          match
            List.mapi
              (fun i b ->
                run_segment ~addr ~conns ~tenants ~tenant_base ~pages ~batch:b
                  ~duration ~mixed ~seed
                  ~want_stats:((not no_stats) && i = List.length batches - 1))
              batches
          with
          | exception Unix.Unix_error (e, fn, _) ->
              Printf.eprintf "riommu-client: %s: %s\n" fn
                (Unix.error_message e);
              1
          | results ->
              Printf.printf
                "riommu-client: %d conns -> %s, %.1fs/segment, mix=%s\n" conns
                (Netloop.addr_to_string addr) duration
                (if mixed then "mixed" else "translate");
              Printf.printf "%-6s %-6s %-10s %-11s %-9s %-9s %-9s\n" "batch"
                "conns" "ops" "ops/s" "p50_us" "p99_us" "p99.9_us";
              List.iter
                (fun r ->
                  let rate =
                    if r.sr_wall > 0. then
                      float_of_int r.sr_ops /. r.sr_wall
                    else 0.
                  in
                  Printf.printf
                    "%-6d %-6d %-10d %-11.0f %-9.1f %-9.1f %-9.1f\n" r.sr_batch
                    conns r.sr_ops rate
                    (float_of_int (Histogram.quantile r.sr_hist 0.5) /. 1e3)
                    (float_of_int (Histogram.quantile r.sr_hist 0.99) /. 1e3)
                    (float_of_int (Histogram.quantile r.sr_hist 0.999) /. 1e3);
                  if r.sr_errors > 0 then
                    Printf.printf "       (%d error responses)\n" r.sr_errors;
                  if r.sr_retries > 0 then
                    Printf.printf "       (%d reconnects)\n" r.sr_retries)
                results;
              (match json with
              | None -> ()
              | Some dest ->
                  let b = Buffer.create 1024 in
                  Buffer.add_string b "{\n";
                  Printf.bprintf b "  \"schema\": \"riommu-client/1\",\n";
                  Printf.bprintf b "  \"addr\": %S,\n"
                    (Netloop.addr_to_string addr);
                  Printf.bprintf b "  \"label\": %S,\n" label;
                  Printf.bprintf b
                    "  \"conns\": %d, \"duration_s\": %.3f, \"pages\": %d, \
                     \"mix\": %S, \"tenant_base\": %d,\n"
                    conns duration pages
                    (if mixed then "mixed" else "translate")
                    tenant_base;
                  Buffer.add_string b "  \"results\": [\n";
                  List.iteri
                    (fun i r ->
                      Printf.bprintf b
                        "    { \"batch\": %d, \"ops\": %d, \"errors\": %d, \
                         \"retries\": %d, \"wall_s\": %.6f, \"ops_per_sec\": \
                         %.1f, \"p50_ns\": %d, \"p99_ns\": %d, \"p999_ns\": \
                         %d }%s\n"
                        r.sr_batch r.sr_ops r.sr_errors r.sr_retries r.sr_wall
                        (if r.sr_wall > 0. then
                           float_of_int r.sr_ops /. r.sr_wall
                         else 0.)
                        (Histogram.quantile r.sr_hist 0.5)
                        (Histogram.quantile r.sr_hist 0.99)
                        (Histogram.quantile r.sr_hist 0.999)
                        (if i < List.length results - 1 then "," else ""))
                    results;
                  Buffer.add_string b "  ]\n}\n";
                  let s = Buffer.contents b in
                  if dest = "-" then print_string s
                  else begin
                    let oc = open_out dest in
                    output_string oc s;
                    close_out oc
                  end);
              let any_ops =
                List.exists (fun r -> r.sr_ops > 0) results
              in
              if any_ops then 0 else 1)
  in
  Term.(
    const run $ connect $ conns $ duration $ batch $ sweep $ tenants
    $ tenant_base $ label $ pages $ mix $ seed $ json $ no_stats)

let () =
  let doc = "socket load generator for riommu-serve --listen" in
  let info = Cmd.info "riommu-client" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.v info client_term))
