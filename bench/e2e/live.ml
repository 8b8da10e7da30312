(* Live trials against the shipped riommu-serve binary.

   A socket trial starts a fresh server, opens [Topo.conns] connections
   from this single thread, maps each connection's pages, then drives a
   closed loop — one pipelined batch in flight per connection — for a
   fixed request count, checking every response. A sim trial runs the
   simulated engine to completion. Either way the trial ends with the
   server's own accounting checked against what was sent. *)

module Wire = Rio_serve_net.Wire
module Histogram = Rio_serve.Histogram

type trial = {
  throughput : float;  (** ops/s over the steady window *)
  p50_us : float;
  p99_us : float;
  cpu_ns_per_op : float;  (** server utime + stime over the window / ops *)
  setup_s : float;
  rss_mib : float;
  attempted : int;
  failed : int;
  samples : int;  (** latency samples (socket) or ops (sim) *)
  syscalls_per_op : float;  (** client read + write + select *)
  client_cpu_ns_per_op : float;
  realized_batch : float;
  model_p50 : int array;  (** map, unmap, translate cycles p50 *)
  minor_words_per_op : float;  (** traced trials only *)
  major_collections : float;
  digest : string;  (** sim stdout summary digest; "" for socket *)
  problems : string list;
}

let trial_timeout_s = 60.

(* A traced server runs with OCAMLRUNPARAM=v=0x400 and reports its GC
   counters on stderr at exit: (minor words, major collections). *)
let traced_env = [ ("OCAMLRUNPARAM", "v=0x400") ]

let gc_counts ~traced err =
  let report = if traced then try Proc.read_file err with Sys_error _ -> "" else "" in
  let field k = float_of_int (Option.value ~default:0 (Proc.int_after report (k ^ ": "))) in
  (field "minor_words", field "major_collections")

(* ---- socket trials ---- *)

type cconn = {
  g : Gen.conn;
  fd : Unix.file_descr;
  wbuf : Bytes.t;
  mutable wpos : int;
  mutable wlen : int;
  rbuf : Bytes.t;
  mutable rpos : int;
  mutable rlen : int;
  mutable sent_at : int;
  mutable warm : bool;  (* the batch in flight is warm-up *)
  mutable received : int;
  mutable dropped : bool;
  mutable finished : bool;
}

let syscalls = ref 0

let queued c = c.wlen - c.wpos

let flush_write c =
  if queued c > 0 && not c.dropped then begin
    incr syscalls;
    match Unix.single_write c.fd c.wbuf c.wpos (queued c) with
    | n ->
        c.wpos <- c.wpos + n;
        if c.wpos = c.wlen then begin
          c.wpos <- 0;
          c.wlen <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        c.dropped <- true
  end

let rec connect path ~deadline_ns ~pid =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Unix.set_nonblock fd;
      fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when Proc.now_ns () < deadline_ns && Proc.alive pid ->
      Unix.close fd;
      Unix.sleepf 0.0002;
      connect path ~deadline_ns ~pid

let socket_trial ~workdir ~(spec : Gen.spec) ~seed ~traced =
  let sock = Filename.concat workdir "serve.sock" in
  let stats = Filename.concat workdir "stats.json" in
  let out = Filename.concat workdir "serve.out" in
  let err = Filename.concat workdir "serve.err" in
  let t0 = Proc.now_ns () in
  let deadline_ns = t0 + int_of_float (trial_timeout_s *. 1e9) in
  let env = if traced then traced_env else [] in
  let pid = Proc.spawn ~env ~out ~err "riommu-serve" (Topo.server_args ~sock ~stats) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let conns =
    Array.init Topo.conns (fun idx ->
        let g = Gen.create spec ~seed ~idx ~tenant:(Topo.tenant_of ~idx) in
        let c =
          {
            g;
            fd = connect sock ~deadline_ns ~pid;
            wbuf = Bytes.create 8192;
            wpos = 0;
            wlen = 0;
            rbuf = Bytes.create 65536;
            rpos = 0;
            rlen = 0;
            sent_at = 0;
            warm = false;
            received = 0;
            dropped = false;
            finished = false;
          }
        in
        c.wlen <- Wire.encode_hello c.wbuf ~pos:0 ~bdf:(Topo.bdf ~idx) ~flags:0;
        c)
  in
  let resp = Wire.create_resp ~sg_limit:Topo.sg_limit in
  let hist = Histogram.create ~sub_bits:12 () in
  let warm_reqs = spec.Gen.requests * 5 / 100 in
  (* steady window: opens when every connection is past warm-up,
     closes when the first one has all its answers *)
  let past_warm = ref 0 in
  let in_window = ref false in
  let window_ops = ref 0 in
  let w_t0 = ref 0 and w_t1 = ref 0 in
  let w_cpu0 = ref 0 and w_cpu1 = ref 0 in
  let w_self0 = ref 0. and w_self1 = ref 0. in
  let w_sys0 = ref 0 and w_sys1 = ref 0 in
  let open_window () =
    in_window := true;
    w_t0 := Proc.now_ns ();
    w_cpu0 := Proc.cpu_ticks pid;
    w_self0 := Proc.self_cpu_ns ();
    w_sys0 := !syscalls
  in
  let close_window () =
    if !in_window then begin
      in_window := false;
      w_t1 := Proc.now_ns ();
      w_cpu1 := Proc.cpu_ticks pid;
      w_self1 := Proc.self_cpu_ns ();
      w_sys1 := !syscalls
    end
  in
  let steady = ref false in
  let send_next c =
    let g = c.g in
    if not (Gen.setup_done g) then c.wlen <- Gen.encode_setup g c.wbuf ~pos:c.wlen
    else if !steady && not (Gen.steady_done g) then begin
      c.warm <- g.Gen.sent < warm_reqs;
      c.wlen <- Gen.encode_batch g c.wbuf ~pos:c.wlen;
      c.sent_at <- Proc.now_ns ()
    end
    else if !steady then begin
      c.finished <- true;
      close_window ()
    end;
    flush_write c
  in
  let batch_done c =
    Gen.end_batch c.g;
    if !steady && c.warm && c.g.Gen.sent >= warm_reqs then begin
      incr past_warm;
      if !past_warm = Topo.conns then open_window ()
    end;
    send_next c
  in
  let on_read c =
    let cap = Bytes.length c.rbuf - c.rlen in
    incr syscalls;
    match Unix.read c.fd c.rbuf c.rlen cap with
    | 0 -> c.dropped <- true
    | n ->
        let t = Proc.now_ns () in
        c.rlen <- c.rlen + n;
        let continue = ref true in
        while !continue do
          let r = Wire.decode_response c.rbuf ~pos:c.rpos ~avail:(c.rlen - c.rpos) resp in
          if r > 0 then begin
            c.rpos <- c.rpos + r;
            c.received <- c.received + 1;
            Gen.check c.g resp;
            if !steady && not c.warm then begin
              Histogram.record hist (t - c.sent_at);
              if !in_window then incr window_ops
            end;
            if not (Gen.batch_open c.g) then batch_done c
          end
          else begin
            if r < 0 then begin
              problem "undecodable response (%s)" (Wire.error_name (Wire.error_of_code r));
              c.dropped <- true
            end;
            continue := false
          end
        done;
        Bytes.blit c.rbuf c.rpos c.rbuf 0 (c.rlen - c.rpos);
        c.rlen <- c.rlen - c.rpos;
        c.rpos <- 0
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        c.dropped <- true
  in
  let pending c =
    (not c.dropped) && (if !steady then not c.finished else not (Gen.setup_done c.g))
  in
  let pump () =
    let busy () = Array.exists pending conns in
    while busy () && Proc.now_ns () < deadline_ns do
      let rd = ref [] and wr = ref [] in
      Array.iter
        (fun c ->
          if pending c then begin
            rd := c.fd :: !rd;
            if queued c > 0 then wr := c.fd :: !wr
          end)
        conns;
      incr syscalls;
      match Unix.select !rd !wr [] 0.05 with
      | r, w, _ ->
          Array.iter
            (fun c ->
              if List.mem c.fd w then flush_write c;
              if List.mem c.fd r then on_read c)
            conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  (* setup: hellos and pre-mapping, then the barrier *)
  Array.iter send_next conns;
  pump ();
  let setup_s = float_of_int (Proc.now_ns () - t0) /. 1e9 in
  steady := true;
  let s_t0 = Proc.now_ns () in
  let s_cpu0 = Proc.cpu_ticks pid in
  let s_self0 = Proc.self_cpu_ns () and s_sys0 = !syscalls in
  if warm_reqs = 0 then open_window ();
  Array.iter send_next conns;
  pump ();
  if Array.exists (fun c -> not c.finished) conns then
    if Proc.now_ns () >= deadline_ns then problem "trial exceeded %.0f s" trial_timeout_s
    else problem "a connection dropped";
  close_window ();
  (* too short to see both connections steady at once (smoke sizes):
     fall back to the whole steady phase *)
  if !window_ops = 0 then begin
    window_ops := Histogram.count hist;
    w_t0 := s_t0;
    w_cpu0 := s_cpu0;
    w_self0 := s_self0;
    w_sys0 := s_sys0;
    w_t1 := Proc.now_ns ();
    w_cpu1 := Proc.cpu_ticks pid;
    w_self1 := Proc.self_cpu_ns ();
    w_sys1 := !syscalls
  end;
  let rss_kib = Proc.vm_hwm_kib pid in
  Array.iter (fun c -> Unix.close c.fd) conns;
  let code = Proc.terminate ~timeout_s:10. pid in
  if code <> 0 then problem "riommu-serve exited with %d" code;
  let attempted =
    Array.fold_left (fun a _ -> a + spec.Gen.pages + Gen.planned spec) 0 conns
  in
  let sent = Array.fold_left (fun a c -> a + c.g.Gen.next_id - 1) 0 conns in
  let received = Array.fold_left (fun a c -> a + c.received) 0 conns in
  let bad = Array.fold_left (fun a c -> a + c.g.Gen.bad_status) 0 conns in
  let wrong = Array.fold_left (fun a c -> a + c.g.Gen.wrong) 0 conns in
  if bad > 0 then problem "%d non-ok statuses" bad;
  if wrong > 0 then problem "%d wrong or unexpected responses" wrong;
  let failed = bad + wrong + (attempted - received) in
  let js = try Proc.read_file stats with Sys_error _ -> "" in
  let get k = Option.value ~default:(-1) (Proc.int_after js ("\"" ^ k ^ "\": ")) in
  let requests = get "requests" and responses = get "responses" in
  if not (requests = sent && responses = sent) then
    problem "server counted %d requests / %d responses, client sent %d" requests
      responses sent;
  List.iter
    (fun k -> if get k <> 0 then problem "server %s = %d" k (get k))
    [ "faults"; "protocol_errors"; "rejected" ];
  let group_p50 op =
    match Proc.index_of js (Printf.sprintf "\"name\": \"net/%s\"" op) with
    | None -> 0
    | Some from -> Option.value ~default:0 (Proc.int_after ~from js "\"p50_cycles\": ")
  in
  let minor_words, major_collections = gc_counts ~traced err in
  let total_ops = float_of_int (max 1 responses) in
  List.iter Proc.remove [ stats; out; err; sock ];
  let ops = float_of_int (max 1 !window_ops) in
  let wall_s = float_of_int (!w_t1 - !w_t0) /. 1e9 in
  {
    throughput = (if wall_s > 0. then float_of_int !window_ops /. wall_s else 0.);
    p50_us = float_of_int (Histogram.quantile hist 0.5) /. 1e3;
    p99_us = float_of_int (Histogram.quantile hist 0.99) /. 1e3;
    cpu_ns_per_op = float_of_int (!w_cpu1 - !w_cpu0) *. Proc.ns_per_tick /. ops;
    setup_s;
    rss_mib = float_of_int rss_kib /. 1024.;
    attempted;
    failed;
    samples = Histogram.count hist;
    syscalls_per_op = float_of_int (!w_sys1 - !w_sys0) /. ops;
    client_cpu_ns_per_op = (!w_self1 -. !w_self0) /. ops;
    realized_batch =
      (match get "batch_flushes" with
      | n when n > 0 -> float_of_int responses /. float_of_int n
      | _ -> 0.);
    model_p50 = [| group_p50 "map"; group_p50 "unmap"; group_p50 "translate" |];
    minor_words_per_op = minor_words /. total_ops;
    major_collections;
    digest = "";
    problems = List.rev !problems;
  }

(* ---- sim trials ---- *)

let sim_args ~seed ~duration =
  [
    "--duration"; Printf.sprintf "%g" duration;
    "--interval"; "1";
    "--jobs"; "1";
    "--seed"; string_of_int seed;
  ]

(* The simulated engine's summary: "total ops N", the faults/dropped
   line, and one row per op kind with p50 in the fourth column. *)
let sim_model_p50 summary op =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l |> List.filter (( <> ) "") with
      | name :: _ops :: _mean :: p50 :: _ when name = op -> int_of_string_opt p50
      | _ -> None)
    (String.split_on_char '\n' summary)
  |> Option.value ~default:0

let sim_trial ~workdir ~seed ~duration ~traced =
  let out = Filename.concat workdir "sim.out" in
  let err = Filename.concat workdir "sim.err" in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* set-up: a run that serves 1 ms of simulated time *)
  let t0 = Proc.now_ns () in
  let pid = Proc.spawn ~out ~err "riommu-serve" (sim_args ~seed ~duration:0.001) in
  let code = Proc.wait ~poll_s:0.0002 ~timeout_s:trial_timeout_s pid in
  let setup_s = float_of_int (Proc.now_ns () - t0) /. 1e9 in
  if code <> 0 then problem "riommu-serve (set-up run) exited with %d" code;
  let env = if traced then traced_env else [] in
  let cpu0 = Proc.children_cpu_ns () in
  let t0 = Proc.now_ns () in
  let pid = Proc.spawn ~env ~out ~err "riommu-serve" (sim_args ~seed ~duration) in
  let rss_kib = ref 0 in
  let code =
    Proc.wait pid ~timeout_s:trial_timeout_s ~on_poll:(fun () ->
        rss_kib := max !rss_kib (Proc.vm_hwm_kib pid))
  in
  let wall_ns = Proc.now_ns () - t0 in
  let cpu_ns = Proc.children_cpu_ns () -. cpu0 in
  if code <> 0 then problem "riommu-serve exited with %d" code;
  let summary = try Proc.read_file out with Sys_error _ -> "" in
  let minor_words, major_collections = gc_counts ~traced err in
  List.iter Proc.remove [ out; err ];
  let ops = Option.value ~default:0 (Proc.int_after summary "total ops ") in
  let requests = Option.value ~default:0 (Proc.int_after summary "requests ") in
  if ops <= 0 then problem "no ops in the summary";
  List.iter
    (fun k ->
      match Proc.int_after summary (k ^ " ") with
      | Some 0 -> ()
      | Some n -> problem "summary reports %s %d" k n
      | None -> problem "summary lacks %s" k)
    [ "dropped"; "faults" ];
  let fops = float_of_int (max 1 ops) in
  let wall_us = float_of_int wall_ns /. 1e3 in
  {
    throughput = fops /. (float_of_int wall_ns /. 1e9);
    p50_us = wall_us;
    p99_us = wall_us;
    cpu_ns_per_op = cpu_ns /. fops;
    setup_s;
    rss_mib = float_of_int !rss_kib /. 1024.;
    attempted = max 1 requests;
    failed = (if !problems = [] then 0 else max 1 requests);
    samples = ops;
    syscalls_per_op = 0.;
    client_cpu_ns_per_op = 0.;
    realized_batch = 0.;
    model_p50 = Array.map (sim_model_p50 summary) [| "map"; "unmap"; "translate" |];
    minor_words_per_op = minor_words /. fops;
    major_collections;
    digest = Digest.to_hex (Digest.string summary);
    problems = List.rev !problems;
  }
