(* Tests for the socket transport layer (rio_serve_net): QCheck
   round-trip properties of the riommu-wire/1 codec (decode o encode =
   id for every op, requests and responses), typed protocol errors on
   truncated / oversized / garbage frames, byte-at-a-time partial-read
   reassembly through Conn, the backpressure admission invariant, and
   the shard-affinity dispatcher (pinning, batch-full handoff,
   bad_request rejection, end-to-end map/translate through a real
   shard with responses decoded back out of the connection's write
   buffer), the executor rings, and Netloop.serve on a unix socket at
   one and two executor domains. *)

module Wire = Rio_serve_net.Wire
module Conn = Rio_serve_net.Conn
module Dispatch = Rio_serve_net.Dispatch
module Spsc = Rio_serve_net.Spsc
module Cell = Rio_serve_net.Cell
module Executor = Rio_serve_net.Executor
module Poll_raw = Rio_poll.Poll_raw
module Netloop = Rio_serve_net.Netloop
module Shard = Rio_serve.Shard
module Shared_iotlb = Rio_domain.Shared_iotlb
module Addr = Rio_memory.Addr

let sg_limit = 8

(* {1 Wire: request round trips} *)

(* Wire u64s carry 62-bit values; exercise the full range, including
   the mask boundary. *)
let u62_gen =
  QCheck.Gen.(
    oneof
      [
        int_bound 0xFFFF;
        int_bound 0xFFFF_FFFF;
        map (fun x -> x land 0x3FFF_FFFF_FFFF_FFFF) (int_range 0 max_int);
        return 0x3FFF_FFFF_FFFF_FFFF;
        return 0;
      ])

let u32_gen = QCheck.Gen.(int_bound 0xFFFF_FFFF)
let tenant_gen = QCheck.Gen.(int_bound 0xFFFF)
let pos_gen = QCheck.Gen.(int_bound 32)

let buf_of ~pos ~garbage =
  let b = Bytes.make (pos + 512) (Char.chr garbage) in
  b

(* Encode one request at a random offset in a dirty buffer, decode it
   back, and require exact field equality plus exact consumed length.
   Decoding with one byte less than the frame must return 0. *)
let prop_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire: request decode o encode = id"
    QCheck.(
      make
        Gen.(
          tup4 (int_bound 4) tenant_gen u32_gen
            (tup4 pos_gen (int_bound 255) (list_size (int_range 1 sg_limit) (tup2 u62_gen u32_gen)) (tup3 u62_gen u32_gen bool))))
    (fun (opk, tenant, req_id, (pos, garbage, segs, (va, nbytes, write))) ->
      let b = buf_of ~pos ~garbage in
      let seg_phys = Array.of_list (List.map fst segs) in
      let seg_bytes = Array.of_list (List.map snd segs) in
      let n = Array.length seg_phys in
      let fin =
        match opk with
        | 0 -> Wire.encode_map b ~pos ~tenant ~req_id ~phys:va ~bytes:nbytes
        | 1 -> Wire.encode_unmap b ~pos ~tenant ~req_id ~iova:va
        | 2 -> Wire.encode_map_sg b ~pos ~tenant ~req_id ~seg_phys ~seg_bytes ~n
        | 3 -> Wire.encode_translate b ~pos ~tenant ~req_id ~iova:va ~write
        | _ -> Wire.encode_stats b ~pos ~tenant ~req_id
      in
      let frame = fin - pos in
      let req = Wire.create_req ~sg_limit in
      (* a one-byte-short window is always "need more" *)
      let short = Wire.decode_request b ~pos ~avail:(frame - 1) req in
      let r = Wire.decode_request b ~pos ~avail:frame req in
      short = 0 && r = frame
      && req.Wire.tenant = tenant
      && req.Wire.req_id = req_id
      &&
      match opk with
      | 0 ->
          req.Wire.op = Wire.op_map
          && req.Wire.phys = va
          && req.Wire.bytes = nbytes
      | 1 -> req.Wire.op = Wire.op_unmap && req.Wire.iova = va
      | 2 ->
          req.Wire.op = Wire.op_map_sg
          && req.Wire.nseg = n
          && Array.sub req.Wire.seg_phys 0 n = seg_phys
          && Array.sub req.Wire.seg_bytes 0 n = seg_bytes
      | 3 ->
          req.Wire.op = Wire.op_translate
          && req.Wire.iova = va
          && req.Wire.write = write
      | _ -> req.Wire.op = Wire.op_stats)

(* {1 Wire: response round trips} *)

let prop_response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire: response decode o encode = id"
    QCheck.(
      make
        Gen.(
          tup4 (int_bound 5) u32_gen pos_gen
            (tup2 (list_size (int_range 1 sg_limit) u62_gen) (tup2 u62_gen (int_bound 4)))))
    (fun (kind, req_id, pos, (iovas_l, (v, status))) ->
      let b = buf_of ~pos ~garbage:0xEE in
      let iovas = Array.of_list iovas_l in
      let n = Array.length iovas in
      let fin =
        match kind with
        | 0 -> Wire.encode_map_ok b ~pos ~req_id ~iova:v
        | 1 -> Wire.encode_unmap_ok b ~pos ~req_id
        | 2 -> Wire.encode_translate_ok b ~pos ~req_id ~phys:v
        | 3 -> Wire.encode_map_sg_ok b ~pos ~req_id ~iovas ~n
        | 4 ->
            Wire.encode_stats_ok b ~pos ~req_id ~ops:v ~requests:(v lxor 1)
              ~conns:3 ~errors:0 ~faults:7
        | _ ->
            Wire.encode_error b ~pos ~op:Wire.op_translate
              ~status:(1 + (status mod 4))
              ~req_id
      in
      let frame = fin - pos in
      let resp = Wire.create_resp ~sg_limit in
      let short = Wire.decode_response b ~pos ~avail:(frame - 1) resp in
      let r = Wire.decode_response b ~pos ~avail:frame resp in
      short = 0 && r = frame
      && resp.Wire.r_req_id = req_id
      &&
      match kind with
      | 0 ->
          resp.Wire.r_op = Wire.op_map
          && resp.Wire.status = Wire.st_ok
          && resp.Wire.r_iova = v
      | 1 -> resp.Wire.r_op = Wire.op_unmap && resp.Wire.status = Wire.st_ok
      | 2 ->
          resp.Wire.r_op = Wire.op_translate
          && resp.Wire.status = Wire.st_ok
          && resp.Wire.r_phys = v
      | 3 ->
          resp.Wire.r_op = Wire.op_map_sg
          && resp.Wire.status = Wire.st_ok
          && resp.Wire.r_nseg = n
          && Array.sub resp.Wire.r_iovas 0 n = iovas
      | 4 ->
          resp.Wire.r_op = Wire.op_stats
          && resp.Wire.s_ops = v
          && resp.Wire.s_requests = v lxor 1
          && resp.Wire.s_conns = 3
          && resp.Wire.s_errors = 0
          && resp.Wire.s_faults = 7
      | _ -> resp.Wire.r_op = Wire.op_translate && resp.Wire.status <> Wire.st_ok)

(* {1 Wire: field accessors} *)

(* The accessors' earlier bodies, composed from bounds-checked 16-bit
   loads and stores: the oracle the single-load accessors must match,
   value for value and exception for exception. *)
module U16 = struct
  let get_u32 b p = Bytes.get_uint16_le b p lor (Bytes.get_uint16_le b (p + 2) lsl 16)

  let set_u32 b p v =
    Bytes.set_uint16_le b p (v land 0xFFFF);
    Bytes.set_uint16_le b (p + 2) ((v lsr 16) land 0xFFFF)

  let get_u64 b p = get_u32 b p lor ((get_u32 b (p + 4) land 0x3FFF_FFFF) lsl 32)

  let set_u64 b p v =
    set_u32 b p (v land 0xFFFF_FFFF);
    set_u32 b (p + 4) ((v lsr 32) land 0x3FFF_FFFF)
end

let outcome f = match f () with v -> Ok v | exception e -> Error e

let accessor_value_gen =
  QCheck.Gen.(
    oneof
      [
        int;
        int_bound 0xFFFF_FFFF;
        oneofl
          [ 0; 0xFFFF_FFFF; (1 lsl 32); (1 lsl 62) - 1; 1 lsl 62; -1; min_int; max_int ];
      ])

(* Loads read a random 16-byte buffer, stores write into two copies of
   one; positions run from before the buffer to past its end, so the
   partial and whole out-of-bounds cases are drawn too. A failed store
   compares only its exception: the 16-bit composition may have
   written its first half before raising. *)
let prop_accessors_match_u16 =
  QCheck.Test.make ~count:2000 ~name:"wire: u32/u64 = u16 composition"
    QCheck.(
      make Gen.(tup3 accessor_value_gen (int_range (-9) 20) (string_size (return 16))))
    (fun (v, pos, init) ->
      let load get oracle =
        let b = Bytes.of_string init in
        outcome (fun () -> get b pos) = outcome (fun () -> oracle b pos)
      in
      let store set oracle =
        let a = Bytes.of_string init and b = Bytes.of_string init in
        let ra = outcome (fun () -> set a pos v) in
        ra = outcome (fun () -> oracle b pos v) && (Result.is_error ra || Bytes.equal a b)
      in
      load Wire.get_u32 U16.get_u32
      && load Wire.get_u64 U16.get_u64
      && store Wire.set_u32 U16.set_u32
      && store Wire.set_u64 U16.set_u64)

(* {1 Wire: typed protocol errors} *)

let code = Wire.error_code

let check_decode name expect buf ~avail =
  let req = Wire.create_req ~sg_limit in
  Alcotest.(check int) name expect (Wire.decode_request buf ~pos:0 ~avail req)

let test_wire_errors () =
  let b = Bytes.create 256 in
  (* truncated: every strict prefix of a valid frame decodes to 0 *)
  let fin = Wire.encode_translate b ~pos:0 ~tenant:3 ~req_id:9 ~iova:0x1000 ~write:true in
  for avail = 0 to fin - 1 do
    check_decode "truncated prefix needs more" 0 b ~avail
  done;
  (* oversized: a hostile length claim fails as soon as the length word
     is readable, without waiting for the claimed body *)
  let huge = Wire.max_body ~sg_limit + 1 in
  Bytes.set_uint16_le b 0 (huge land 0xFFFF);
  Bytes.set_uint16_le b 2 (huge lsr 16);
  check_decode "oversized rejected from the length word alone" (code Wire.Oversized)
    b ~avail:4;
  (* bad length: shorter than a request header *)
  Bytes.set_uint16_le b 0 4;
  Bytes.set_uint16_le b 2 0;
  check_decode "undersized length" (code Wire.Bad_length) b ~avail:4;
  (* garbage magic *)
  let fin = Wire.encode_unmap b ~pos:0 ~tenant:1 ~req_id:2 ~iova:0x2000 in
  Bytes.set_uint8 b 4 0x55;
  check_decode "corrupt magic" (code Wire.Bad_magic) b ~avail:fin;
  (* unknown op *)
  let fin = Wire.encode_stats b ~pos:0 ~tenant:1 ~req_id:2 in
  Bytes.set_uint8 b 5 0x7F;
  check_decode "unknown op" (code Wire.Bad_op) b ~avail:fin;
  (* payload length inconsistent with the op *)
  let fin = Wire.encode_map b ~pos:0 ~tenant:1 ~req_id:2 ~phys:0x3000 ~bytes:64 in
  Bytes.set_uint8 b 5 Wire.op_unmap;
  check_decode "map-sized payload on unmap" (code Wire.Bad_length) b ~avail:fin;
  (* map_sg with nseg = 0 and with nseg > sg_limit *)
  let seg_phys = Array.make 1 0x4000 and seg_bytes = Array.make 1 64 in
  let fin = Wire.encode_map_sg b ~pos:0 ~tenant:1 ~req_id:2 ~seg_phys ~seg_bytes ~n:1 in
  Bytes.set_uint16_le b 12 0;
  check_decode "nseg = 0" (code Wire.Bad_segs) b ~avail:fin;
  Bytes.set_uint16_le b 12 (sg_limit + 1);
  check_decode "nseg above limit" (code Wire.Bad_segs) b ~avail:fin;
  (* hello: truncated then corrupt *)
  let h = Bytes.create 32 in
  let _ = Wire.encode_hello h ~pos:0 ~bdf:0x0100 ~flags:0 in
  Alcotest.(check int) "truncated hello needs more" 0
    (Wire.decode_hello h ~pos:0 ~avail:(Wire.hello_bytes - 1));
  Alcotest.(check int) "hello bdf" 0x0100 (Wire.hello_bdf h ~pos:0);
  Bytes.set_uint8 h 0 (Char.code 'X');
  Alcotest.(check int) "corrupt hello magic" (code Wire.Bad_hello)
    (Wire.decode_hello h ~pos:0 ~avail:Wire.hello_bytes);
  (* error_of_code is the inverse of error_code on the whole range *)
  List.iter
    (fun e -> Alcotest.(check bool) "error_of_code inverse" true
        (Wire.error_of_code (Wire.error_code e) = e))
    [ Wire.Bad_magic; Wire.Bad_op; Wire.Bad_length; Wire.Oversized;
      Wire.Bad_segs; Wire.Bad_hello ]

(* {1 Conn: byte-at-a-time reassembly} *)

(* A hello plus three frames trickled in one byte at a time must decode
   to exactly those three requests, in order, each completing only on
   its final byte. *)
let test_conn_reassembly () =
  let stream = Bytes.create 512 in
  let p = Wire.encode_hello stream ~pos:0 ~bdf:0x0342 ~flags:0 in
  let p = Wire.encode_map stream ~pos:p ~tenant:2 ~req_id:100 ~phys:0x5000 ~bytes:4096 in
  let p = Wire.encode_translate stream ~pos:p ~tenant:2 ~req_id:101 ~iova:0x9000 ~write:false in
  let total = Wire.encode_stats stream ~pos:p ~tenant:0 ~req_id:102 in
  let conn = Conn.create ~window:8 ~sg_limit () in
  let req = Wire.create_req ~sg_limit in
  let decoded = ref [] in
  for i = 0 to total - 1 do
    Conn.feed conn stream ~pos:i ~len:1;
    let r = Conn.next conn req in
    if r > 0 then decoded := (req.Wire.op, req.Wire.req_id) :: !decoded
    else Alcotest.(check int) "partial frame: need more" 0 r
  done;
  Alcotest.(check (list (pair int int)))
    "frames complete exactly on their last byte"
    [ (Wire.op_map, 100); (Wire.op_translate, 101); (Wire.op_stats, 102) ]
    (List.rev !decoded);
  Alcotest.(check int) "bdf from hello" 0x0342 (Conn.bdf conn);
  Alcotest.(check int) "window grew per request" 3 (Conn.inflight conn)

(* A protocol error mid-stream kills the connection and nothing
   decodes after it. *)
let test_conn_kill_on_garbage () =
  let conn = Conn.create ~window:4 ~sg_limit () in
  let b = Bytes.create 64 in
  let p = Wire.encode_hello b ~pos:0 ~bdf:1 ~flags:0 in
  let fin = Wire.encode_unmap b ~pos:p ~tenant:0 ~req_id:7 ~iova:0x1000 in
  Bytes.set_uint8 b (p + 4) 0x00 (* corrupt the frame magic *);
  Conn.feed conn b ~pos:0 ~len:fin;
  let req = Wire.create_req ~sg_limit in
  Alcotest.(check int) "typed error surfaces" (code Wire.Bad_magic)
    (Conn.next conn req);
  Alcotest.(check bool) "connection dead" false (Conn.alive conn);
  Alcotest.(check int) "dead conn decodes nothing" 0 (Conn.next conn req)

(* Admission closes exactly when the window fills, and reserve never
   fails while admission is open — the backpressure invariant the
   event loop relies on. *)
let test_conn_backpressure () =
  let window = 4 in
  let conn = Conn.create ~window ~sg_limit () in
  let b = Bytes.create 1024 in
  let p = ref (Wire.encode_hello b ~pos:0 ~bdf:1 ~flags:0) in
  for i = 0 to window - 1 do
    p := Wire.encode_translate b ~pos:!p ~tenant:0 ~req_id:i ~iova:0x1000 ~write:false
  done;
  Conn.feed conn b ~pos:0 ~len:!p;
  let req = Wire.create_req ~sg_limit in
  let rsp_max = Wire.max_response_bytes ~sg_limit in
  for _ = 1 to window do
    Alcotest.(check bool) "admission open below window" true (Conn.can_admit conn);
    Alcotest.(check bool) "decode succeeds" true (Conn.next conn req > 0);
    let off = Conn.reserve conn rsp_max in
    Alcotest.(check bool) "reserve holds while admitted" true (off >= 0);
    Conn.commit conn
      (Wire.encode_translate_ok (Conn.wbuf conn) ~pos:off ~req_id:req.Wire.req_id
         ~phys:0xAB000)
  done;
  Alcotest.(check bool) "window full: admission closed" false (Conn.can_admit conn);
  Alcotest.(check bool) "window full: reads off" false (Conn.want_read conn);
  Alcotest.(check bool) "responses queued: writes on" true (Conn.want_write conn);
  (* retiring requests reopens admission; draining clears want_write *)
  for _ = 1 to window do Conn.completed conn done;
  Alcotest.(check bool) "drained window readmits" true (Conn.can_admit conn);
  Conn.consumed conn (Conn.queued conn);
  Alcotest.(check bool) "no queued bytes: writes off" false (Conn.want_write conn)

(* {1 Dispatch: affinity, batching, rejection} *)

let make_shards n =
  Array.init n (fun id ->
      Shard.create ~id ~tenants:4 ~iotlb_capacity:64 ~iotlb_policy:Shared_iotlb.Shared
        ~rcache:true ())

let hello_conn ~window =
  let conn = Conn.create ~window ~sg_limit () in
  let b = Bytes.create Wire.hello_bytes in
  let n = Wire.encode_hello b ~pos:0 ~bdf:0x0100 ~flags:0 in
  Conn.feed conn b ~pos:0 ~len:n;
  let req = Wire.create_req ~sg_limit in
  assert (Conn.next conn req = 0);
  conn

(* Feed one encoded request through Conn.next then Dispatch.enqueue. *)
let push d conn req b fin =
  Conn.feed conn b ~pos:0 ~len:fin;
  Alcotest.(check bool) "frame decodes" true (Conn.next conn req > 0);
  Dispatch.enqueue d conn req

let drain_one conn resp =
  let r =
    Wire.decode_response (Conn.wbuf conn) ~pos:(Conn.wpos conn)
      ~avail:(Conn.queued conn) resp
  in
  Alcotest.(check bool) "a response is queued" true (r > 0);
  Conn.consumed conn r

let test_dispatch_affinity () =
  let shards = make_shards 4 in
  let d = Dispatch.create ~shards ~batch:16 ~sg_limit () in
  (* the pinning hash is deterministic and spreads tenants *)
  let spread = Array.make 4 0 in
  for tenant = 0 to 63 do
    let s = Dispatch.shard_of d ~tenant ~bdf:0x0100 in
    Alcotest.(check int) "affinity hash is stable" s
      (Dispatch.shard_of d ~tenant ~bdf:0x0100);
    spread.(s) <- spread.(s) + 1
  done;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool) (Printf.sprintf "shard %d gets tenants" i) true (n > 0))
    spread

let test_dispatch_map_translate_roundtrip () =
  let shards = make_shards 2 in
  let d = Dispatch.create ~shards ~batch:8 ~sg_limit () in
  let conn = hello_conn ~window:16 in
  let req = Wire.create_req ~sg_limit in
  let b = Bytes.create 256 in
  let phys = (Shard.next_buf shards.(0) :> int) in
  let fin = Wire.encode_map b ~pos:0 ~tenant:1 ~req_id:500 ~phys ~bytes:4096 in
  Alcotest.(check bool) "map enqueued" true (push d conn req b fin);
  Dispatch.flush_all d;
  let resp = Wire.create_resp ~sg_limit in
  drain_one conn resp;
  Alcotest.(check int) "map answers its req_id" 500 resp.Wire.r_req_id;
  Alcotest.(check int) "map ok" Wire.st_ok resp.Wire.status;
  let iova = resp.Wire.r_iova in
  (* translate the iova the map returned; the shard must hand back the
     physical frame we mapped *)
  let fin = Wire.encode_translate b ~pos:0 ~tenant:1 ~req_id:501 ~iova ~write:true in
  Alcotest.(check bool) "translate enqueued" true (push d conn req b fin);
  Dispatch.flush_all d;
  drain_one conn resp;
  Alcotest.(check int) "translate answers its req_id" 501 resp.Wire.r_req_id;
  Alcotest.(check int) "translate ok" Wire.st_ok resp.Wire.status;
  Alcotest.(check int) "translate returns the mapped frame" phys resp.Wire.r_phys;
  (* unmap, then a second translate faults *)
  let fin = Wire.encode_unmap b ~pos:0 ~tenant:1 ~req_id:502 ~iova in
  Alcotest.(check bool) "unmap enqueued" true (push d conn req b fin);
  let fin = Wire.encode_translate b ~pos:0 ~tenant:1 ~req_id:503 ~iova ~write:false in
  Alcotest.(check bool) "stale translate enqueued" true (push d conn req b fin);
  Dispatch.flush_all d;
  drain_one conn resp;
  Alcotest.(check int) "unmap ok" Wire.st_ok resp.Wire.status;
  drain_one conn resp;
  Alcotest.(check int) "stale translate faults" Wire.st_fault resp.Wire.status;
  Alcotest.(check int) "fault echoes req_id" 503 resp.Wire.r_req_id;
  Alcotest.(check int) "all four executed" 4 (Dispatch.executed d);
  Alcotest.(check int) "window fully retired" 0 (Conn.inflight conn)

let test_dispatch_batch_full () =
  let shards = make_shards 1 in
  let batch = 4 in
  let d = Dispatch.create ~shards ~batch ~sg_limit () in
  let conn = hello_conn ~window:16 in
  let req = Wire.create_req ~sg_limit in
  let b = Bytes.create 256 in
  let enqueue_translate i =
    let fin =
      Wire.encode_translate b ~pos:0 ~tenant:0 ~req_id:i ~iova:0x7000 ~write:false
    in
    push d conn req b fin
  in
  for i = 0 to batch - 1 do
    Alcotest.(check bool) "fits in batch" true (enqueue_translate i)
  done;
  Alcotest.(check int) "batch holds the requests" batch (Dispatch.pending d);
  Alcotest.(check bool) "full batch refuses" false (enqueue_translate batch);
  Dispatch.flush_all d;
  Alcotest.(check int) "flush empties" 0 (Dispatch.pending d);
  Alcotest.(check bool) "retry after flush succeeds" true
    (Dispatch.enqueue d conn req);
  Dispatch.flush_all d;
  Alcotest.(check int) "all executed" (batch + 1) (Dispatch.executed d);
  Alcotest.(check int) "two non-empty flushes" 2 (Dispatch.flushes d)

(* The ring-churn workload's batch for one tenant — 16 maps, 32
   translates of live pages, 16 FIFO unmaps of the oldest, over 64 live
   pages — through the inline flush. After warm-up, [Dispatch.flush_all]
   (every op arm of the body and the response encode) allocates
   nothing. *)
let test_dispatch_zero_alloc () =
  let shards = make_shards 1 in
  let d = Dispatch.create ~shards ~batch:64 ~sg_limit () in
  let conn = hello_conn ~window:128 in
  let req = Wire.create_req ~sg_limit in
  let resp = Wire.create_resp ~sg_limit in
  let b = Bytes.create 64 in
  let tenant = 0 in
  (* live IOVAs, oldest first, in a ring of 128 *)
  let live = Array.make 128 0 in
  let head = ref 0 and tail = ref 0 in
  let req_id = ref 0 in
  let send encode =
    incr req_id;
    Alcotest.(check bool) "enqueued" true (push d conn req b (encode ~req_id:!req_id))
  in
  let map () =
    send (fun ~req_id ->
        Wire.encode_map b ~pos:0 ~tenant ~req_id
          ~phys:(Shard.next_buf shards.(0) :> int)
          ~bytes:4096)
  in
  (* run the batch queued so far; the map answers come first *)
  let flush ~maps ~others =
    let a = Gc.minor_words () in
    let a' = Gc.minor_words () in
    Dispatch.flush_all d;
    let z = Gc.minor_words () in
    for _ = 1 to maps do
      drain_one conn resp;
      Alcotest.(check int) "map ok" Wire.st_ok resp.Wire.status;
      live.(!tail land 127) <- resp.Wire.r_iova;
      incr tail
    done;
    for _ = 1 to others do
      drain_one conn resp;
      Alcotest.(check int) "translate/unmap ok" Wire.st_ok resp.Wire.status
    done;
    z -. a' -. (a' -. a)
  in
  for _ = 1 to 64 do
    map ()
  done;
  ignore (flush ~maps:64 ~others:0 : float);
  let batch () =
    for _ = 1 to 16 do
      map ()
    done;
    for k = 0 to 31 do
      let iova = live.((!head + (2 * k)) land 127) in
      send (fun ~req_id ->
          Wire.encode_translate b ~pos:0 ~tenant ~req_id ~iova ~write:(k land 1 = 0))
    done;
    for _ = 1 to 16 do
      let iova = live.(!head land 127) in
      incr head;
      send (fun ~req_id -> Wire.encode_unmap b ~pos:0 ~tenant ~req_id ~iova)
    done;
    flush ~maps:16 ~others:48
  in
  for _ = 1 to 64 do
    ignore (batch () : float)
  done;
  let words = ref 0. in
  for _ = 1 to 64 do
    words := !words +. batch ()
  done;
  Alcotest.(check int) "64 pages live" 64 (!tail - !head);
  Alcotest.(check (float 0.)) "minor words over 64 batches" 0. !words

let test_dispatch_rejects_bad_tenant () =
  let shards = make_shards 2 in
  let d = Dispatch.create ~shards ~batch:8 ~sg_limit ~max_tenants:16 () in
  let conn = hello_conn ~window:8 in
  let req = Wire.create_req ~sg_limit in
  let b = Bytes.create 256 in
  let fin = Wire.encode_translate b ~pos:0 ~tenant:99 ~req_id:7 ~iova:0 ~write:false in
  Alcotest.(check bool) "rejection is handled, not batched" true
    (push d conn req b fin);
  Alcotest.(check int) "nothing pending" 0 (Dispatch.pending d);
  Alcotest.(check int) "rejected counter" 1 (Dispatch.rejected d);
  let resp = Wire.create_resp ~sg_limit in
  drain_one conn resp;
  Alcotest.(check int) "bad_request status" Wire.st_bad_request resp.Wire.status;
  Alcotest.(check int) "rejection echoes req_id" 7 resp.Wire.r_req_id;
  Alcotest.(check int) "window retired on rejection" 0 (Conn.inflight conn)

(* The tenant registry starts empty and grows at the first sight of a
   tenant id past its end. A tenant placed before a growth keeps its
   shard and domain slot: its mapping still translates afterwards. *)
let test_dispatch_registry_grows () =
  let shards = make_shards 2 in
  let d = Dispatch.create ~shards ~batch:8 ~sg_limit () in
  let conn = hello_conn ~window:16 in
  let req = Wire.create_req ~sg_limit in
  let resp = Wire.create_resp ~sg_limit in
  let b = Bytes.create 256 in
  let phys = (Shard.next_buf shards.(0) :> int) in
  let roundtrip fin =
    Alcotest.(check bool) "enqueued" true (push d conn req b fin);
    Dispatch.flush_all d;
    drain_one conn resp
  in
  roundtrip (Wire.encode_map b ~pos:0 ~tenant:1 ~req_id:1 ~phys ~bytes:4096);
  Alcotest.(check int) "tenant 1 maps" Wire.st_ok resp.Wire.status;
  let iova = resp.Wire.r_iova in
  roundtrip (Wire.encode_map b ~pos:0 ~tenant:4095 ~req_id:2 ~phys ~bytes:4096);
  Alcotest.(check int) "the highest tenant id is placed" Wire.st_ok
    resp.Wire.status;
  roundtrip (Wire.encode_translate b ~pos:0 ~tenant:1 ~req_id:3 ~iova ~write:true);
  Alcotest.(check int) "tenant 1 kept its placement" Wire.st_ok resp.Wire.status;
  Alcotest.(check int) "and its mapping" phys resp.Wire.r_phys;
  roundtrip (Wire.encode_translate b ~pos:0 ~tenant:4096 ~req_id:4 ~iova ~write:true);
  Alcotest.(check int) "max_tenants still bounds the ids" Wire.st_bad_request
    resp.Wire.status

(* Frames that decode but name no valid DMA are answered, never raised
   out of [flush_all] (which would end every tenant's connection): a
   translate past the 48-bit IOVA space faults; a map of zero bytes, a
   map_sg with a zero-byte segment, and a map or map_sg segment whose
   last byte lies at or past 2^phys_bits are bad requests. A map whose
   last byte is the last below 2^phys_bits is served. The connection
   keeps serving afterwards. *)
let test_dispatch_malformed_ops () =
  let shards = make_shards 1 in
  let d = Dispatch.create ~shards ~batch:8 ~sg_limit () in
  let conn = hello_conn ~window:16 in
  let req = Wire.create_req ~sg_limit in
  let resp = Wire.create_resp ~sg_limit in
  let b = Bytes.create 256 in
  let phys = (Shard.next_buf shards.(0) :> int) in
  let fin =
    Wire.encode_translate b ~pos:0 ~tenant:0 ~req_id:1 ~iova:(1 lsl 48)
      ~write:false
  in
  Alcotest.(check bool) "wide translate enqueued" true (push d conn req b fin);
  let fin = Wire.encode_map b ~pos:0 ~tenant:0 ~req_id:2 ~phys ~bytes:0 in
  Alcotest.(check bool) "empty map handled" true (push d conn req b fin);
  let fin =
    Wire.encode_map_sg b ~pos:0 ~tenant:0 ~req_id:3 ~seg_phys:[| phys; phys |]
      ~seg_bytes:[| 4096; 0 |] ~n:2
  in
  Alcotest.(check bool) "empty segment handled" true (push d conn req b fin);
  let top = (1 lsl 62) - 1 (* the largest wire u64 after the 62-bit mask *) in
  let limit = 1 lsl Dispatch.phys_bits in
  let fin = Wire.encode_map b ~pos:0 ~tenant:0 ~req_id:6 ~phys:top ~bytes:2 in
  Alcotest.(check bool) "top-of-range map handled" true (push d conn req b fin);
  let fin =
    Wire.encode_map_sg b ~pos:0 ~tenant:0 ~req_id:7 ~seg_phys:[| phys; top |]
      ~seg_bytes:[| 4096; 2 |] ~n:2
  in
  Alcotest.(check bool) "top-of-range segment handled" true
    (push d conn req b fin);
  let fin =
    Wire.encode_map b ~pos:0 ~tenant:0 ~req_id:8 ~phys:(limit - 1) ~bytes:2
  in
  Alcotest.(check bool) "map across the width handled" true
    (push d conn req b fin);
  let fin =
    Wire.encode_map b ~pos:0 ~tenant:0 ~req_id:9 ~phys:(limit - 4096) ~bytes:4096
  in
  Alcotest.(check bool) "map up to the width enqueued" true
    (push d conn req b fin);
  Alcotest.(check int) "only the translate and the last map reach a shard" 2
    (Dispatch.pending d);
  Dispatch.flush_all d;
  let status = Array.make 10 (-1) in
  for _ = 1 to 7 do
    drain_one conn resp;
    status.(resp.Wire.r_req_id) <- resp.Wire.status
  done;
  Alcotest.(check int) "wide translate faults" Wire.st_fault status.(1);
  Alcotest.(check int) "empty map rejected" Wire.st_bad_request status.(2);
  Alcotest.(check int) "empty segment rejected" Wire.st_bad_request status.(3);
  Alcotest.(check int) "top-of-range map rejected" Wire.st_bad_request status.(6);
  Alcotest.(check int) "top-of-range segment rejected" Wire.st_bad_request
    status.(7);
  Alcotest.(check int) "map across the width rejected" Wire.st_bad_request
    status.(8);
  Alcotest.(check int) "map up to the width served" Wire.st_ok status.(9);
  Alcotest.(check int) "one fault counted" 1 (Shard.faults shards.(0));
  let fin = Wire.encode_map b ~pos:0 ~tenant:0 ~req_id:4 ~phys ~bytes:4096 in
  Alcotest.(check bool) "map enqueued" true (push d conn req b fin);
  Dispatch.flush_all d;
  drain_one conn resp;
  Alcotest.(check int) "map ok" Wire.st_ok resp.Wire.status;
  let fin =
    Wire.encode_translate b ~pos:0 ~tenant:0 ~req_id:5 ~iova:resp.Wire.r_iova
      ~write:true
  in
  Alcotest.(check bool) "translate enqueued" true (push d conn req b fin);
  Dispatch.flush_all d;
  drain_one conn resp;
  Alcotest.(check int) "translate ok" Wire.st_ok resp.Wire.status;
  Alcotest.(check int) "translate returns the mapped frame" phys
    resp.Wire.r_phys;
  Alcotest.(check int) "window fully retired" 0 (Conn.inflight conn)

(* {1 SPSC ring: oracle equivalence and boundaries} *)

(* Drive a random push/pop schedule against a Queue.t oracle: pushes
   succeed exactly while the oracle holds fewer than [capacity] cells,
   pops return exactly the oracle's FIFO front, lane-for-lane. *)
let prop_spsc_oracle =
  QCheck.Test.make ~count:300 ~name:"spsc: matches queue oracle"
    QCheck.(
      make
        Gen.(
          tup3 (int_range 1 16) (int_range 1 4)
            (list_size (int_range 0 200) bool)))
    (fun (cap, width, ops) ->
      let r = Spsc.create ~cap ~width in
      let oracle = Queue.create () in
      let counter = ref 0 in
      let src = Array.make width 0 in
      let dst = Array.make width 0 in
      List.for_all
        (fun is_push ->
          if is_push then begin
            incr counter;
            Array.iteri (fun i _ -> src.(i) <- (!counter * 31) + i) src;
            let pushed = Spsc.try_push r ~src in
            let had_room = Queue.length oracle < Spsc.capacity r in
            if pushed then Queue.push (Array.copy src) oracle;
            pushed = had_room
          end
          else begin
            let popped = Spsc.try_pop r ~dst in
            match Queue.take_opt oracle with
            | None -> not popped
            | Some expect -> popped && expect = dst
          end)
        ops
      && Spsc.length r = Queue.length oracle
      && (Spsc.length r = 0) = Queue.is_empty oracle)

let test_spsc_boundaries () =
  let width = 3 in
  let r = Spsc.create ~cap:3 ~width in
  Alcotest.(check int) "capacity rounds to a power of two" 4 (Spsc.capacity r);
  let src = Array.make width 0 in
  let dst = Array.make width 0 in
  Alcotest.(check bool) "empty pop fails" false (Spsc.try_pop r ~dst);
  Alcotest.(check int) "empty at creation" 0 (Spsc.length r);
  for k = 1 to 4 do
    src.(0) <- k;
    src.(width - 1) <- k * 7;
    Alcotest.(check bool) "push while room" true (Spsc.try_push r ~src)
  done;
  Alcotest.(check bool) "full push fails" false (Spsc.try_push r ~src);
  Alcotest.(check int) "length at capacity" 4 (Spsc.length r);
  (* wrap the cursors past the mask: pop two, push two, drain all *)
  for k = 1 to 2 do
    Alcotest.(check bool) "pop succeeds" true (Spsc.try_pop r ~dst);
    Alcotest.(check int) "fifo order" k dst.(0);
    Alcotest.(check int) "last lane intact" (k * 7) dst.(width - 1)
  done;
  for k = 5 to 6 do
    src.(0) <- k;
    src.(width - 1) <- k * 7;
    Alcotest.(check bool) "push after wrap" true (Spsc.try_push r ~src)
  done;
  for k = 3 to 6 do
    Alcotest.(check bool) "drain succeeds" true (Spsc.try_pop r ~dst);
    Alcotest.(check int) "wrapped fifo order" k dst.(0)
  done;
  Alcotest.(check int) "drained ring is empty" 0 (Spsc.length r);
  Alcotest.(check bool) "drained pop fails" false (Spsc.try_pop r ~dst)

(* {1 Readiness: poll(2) against real pipes} *)

(* The fixed set the socket loop indexes by slot: a fresh set is all
   holes, a hole between watched entries reads no bits, [clear] turns an
   entry back into a hole, and the ready bits land on the entry's own
   index. *)
let test_readiness_pipes () =
  let ps = Poll_raw.create ~cap:4 in
  Alcotest.(check int) "a fresh set is all holes" 0
    (Poll_raw.wait ps ~n:4 ~timeout_ms:0);
  let a_rd, a_wr = Unix.pipe ~cloexec:true () in
  let b_rd, b_wr = Unix.pipe ~cloexec:true () in
  Poll_raw.set ps ~idx:0 ~fd:a_rd ~events:Poll_raw.ev_in;
  Poll_raw.set ps ~idx:2 ~fd:b_rd ~events:Poll_raw.ev_in;
  Alcotest.(check int) "nothing ready" 0 (Poll_raw.wait ps ~n:4 ~timeout_ms:0);
  ignore (Unix.write b_wr (Bytes.make 1 'x') 0 1);
  Alcotest.(check int) "one ready" 1 (Poll_raw.wait ps ~n:4 ~timeout_ms:1000);
  Alcotest.(check int) "read bit on its own index" Poll_raw.ev_in
    (Poll_raw.revents ps ~idx:2);
  Alcotest.(check int) "the hole reads nothing" 0 (Poll_raw.revents ps ~idx:1);
  Alcotest.(check int) "the idle entry reads nothing" 0
    (Poll_raw.revents ps ~idx:0);
  (* clearing leaves a hole below a live entry; the survivor keeps its
     index *)
  Poll_raw.clear ps ~idx:2;
  Unix.close b_rd;
  Unix.close b_wr;
  Alcotest.(check int) "a cleared entry reads nothing" 0
    (Poll_raw.revents ps ~idx:2);
  ignore (Unix.write a_wr (Bytes.make 1 'y') 0 1);
  Alcotest.(check int) "survivor ready" 1 (Poll_raw.wait ps ~n:4 ~timeout_ms:1000);
  Alcotest.(check int) "survivor index" Poll_raw.ev_in (Poll_raw.revents ps ~idx:0);
  (* write interest on an unclogged pipe reports ready immediately *)
  Poll_raw.set ps ~idx:3 ~fd:a_wr ~events:Poll_raw.ev_out;
  Alcotest.(check int) "both ready" 2 (Poll_raw.wait ps ~n:4 ~timeout_ms:1000);
  Alcotest.(check int) "write bit on its index" Poll_raw.ev_out
    (Poll_raw.revents ps ~idx:3);
  (* only the first [n] entries are polled *)
  Alcotest.(check int) "a prefix wait skips the rest" 1
    (Poll_raw.wait ps ~n:3 ~timeout_ms:0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "rio_pollset_set")
    (fun () -> Poll_raw.set ps ~idx:4 ~fd:a_rd ~events:Poll_raw.ev_in);
  Poll_raw.clear ps ~idx:3;
  Poll_raw.clear ps ~idx:0;
  Alcotest.(check int) "all holes again" 0 (Poll_raw.wait ps ~n:4 ~timeout_ms:0);
  Unix.close a_rd;
  Unix.close a_wr

(* {1 Executor: cells through the ring, end to end} *)

(* The multi-domain hand-off run inline on one thread: decode into
   Dispatch, pack the batch into request cells ([flush_cells]), push
   them through a real SPSC ring into an [Executor], [step] it, pop
   the response cells back and [complete] them into the connection's
   write buffer — then decode the wire responses and check they match
   what the single-threaded [flush_all] path would have produced. *)
let test_executor_step_roundtrip () =
  let shards = make_shards 2 in
  let d = Dispatch.create ~shards ~batch:8 ~sg_limit () in
  let conn = hello_conn ~window:16 in
  Conn.set_token conn 3;
  let req = Wire.create_req ~sg_limit in
  let resp = Wire.create_resp ~sg_limit in
  let b = Bytes.create 512 in
  let _rd, wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wr;
  let ex = Executor.create ~shards ~sg_limit ~ring_cap:16 ~wake_fd:wr in
  let cell = Array.make (Cell.req_width ~sg_limit) 0 in
  let rsp_cell = Array.make (Cell.rsp_width ~sg_limit) 0 in
  let pump ~expect =
    let emitted = ref 0 in
    Dispatch.flush_cells d ~cell ~emit:(fun ~shard ->
        Alcotest.(check bool) "shard index in range" true
          (shard >= 0 && shard < Array.length shards);
        incr emitted;
        Alcotest.(check bool) "ring admits the cell" true
          (Spsc.try_push (Executor.request_ring ex) ~src:cell));
    Alcotest.(check int) "cells emitted" expect !emitted;
    Alcotest.(check int) "executor ran them" expect (Executor.step ex);
    for _ = 1 to expect do
      Alcotest.(check bool) "response cell pops" true
        (Spsc.try_pop (Executor.response_ring ex) ~dst:rsp_cell);
      Alcotest.(check int) "response routes to the conn slot" 3
        rsp_cell.(Cell.r_slot);
      Dispatch.complete d conn ~cell:rsp_cell
    done
  in
  (* map, recover the iova from the encoded response *)
  let phys = (Shard.next_buf shards.(0) :> int) in
  let fin = Wire.encode_map b ~pos:0 ~tenant:1 ~req_id:700 ~phys ~bytes:4096 in
  Alcotest.(check bool) "map enqueued" true (push d conn req b fin);
  pump ~expect:1;
  drain_one conn resp;
  Alcotest.(check int) "map answers its req_id" 700 resp.Wire.r_req_id;
  Alcotest.(check int) "map ok" Wire.st_ok resp.Wire.status;
  let iova = resp.Wire.r_iova in
  (* translate + a stale-tenant mix in one batch *)
  let fin =
    Wire.encode_translate b ~pos:0 ~tenant:1 ~req_id:701 ~iova ~write:true
  in
  Alcotest.(check bool) "translate enqueued" true (push d conn req b fin);
  let fin = Wire.encode_unmap b ~pos:0 ~tenant:1 ~req_id:702 ~iova in
  Alcotest.(check bool) "unmap enqueued" true (push d conn req b fin);
  pump ~expect:2;
  drain_one conn resp;
  Alcotest.(check int) "translate answers its req_id" 701 resp.Wire.r_req_id;
  Alcotest.(check int) "translate returns the mapped frame" phys
    resp.Wire.r_phys;
  drain_one conn resp;
  Alcotest.(check int) "unmap ok" Wire.st_ok resp.Wire.status;
  (* a faulting translate still routes an error cell back *)
  let fin =
    Wire.encode_translate b ~pos:0 ~tenant:1 ~req_id:703 ~iova ~write:false
  in
  Alcotest.(check bool) "stale translate enqueued" true (push d conn req b fin);
  pump ~expect:1;
  drain_one conn resp;
  Alcotest.(check int) "stale translate faults" Wire.st_fault resp.Wire.status;
  Alcotest.(check int) "fault echoes req_id" 703 resp.Wire.r_req_id;
  (* map_sg exercises the segment lanes of both cell directions *)
  let segs = Array.init 3 (fun _ -> (Shard.next_buf shards.(0) :> int)) in
  let fin =
    Wire.encode_map_sg b ~pos:0 ~tenant:1 ~req_id:704 ~seg_phys:segs
      ~seg_bytes:(Array.make 3 4096) ~n:3
  in
  Alcotest.(check bool) "map_sg enqueued" true (push d conn req b fin);
  pump ~expect:1;
  drain_one conn resp;
  Alcotest.(check int) "map_sg ok" Wire.st_ok resp.Wire.status;
  Alcotest.(check int) "map_sg returns every iova" 3 resp.Wire.r_nseg;
  Alcotest.(check int) "executor counted the work" 5 (Executor.executed ex);
  Alcotest.(check int) "completions counted" 5 (Dispatch.executed d);
  Alcotest.(check int) "window fully retired" 0 (Conn.inflight conn);
  Unix.close _rd;
  Unix.close wr

(* {1 Inline vs ring: one op body behind both flushes} *)

(* One request stream fed to two identically created shard arrays: one
   behind [flush_all] (the one-domain loop), the other behind
   [flush_cells] -> Spsc -> [Executor.step] -> [complete] (the
   N-domain loop, driven on this thread). Every response byte and the
   executed/rejected counters must agree. The stream covers all four
   ops with ok, fault, not_mapped, exhausted and bad_request outcomes,
   a stats request, a mid-batch flush on a full batch, and a
   connection killed while its requests sit in a batch. *)
let test_inline_matches_ring () =
  let make () =
    let shards = make_shards 2 in
    (shards, Dispatch.create ~shards ~batch:4 ~sg_limit ~max_tenants:16 ())
  in
  let _, da = make () in
  let sc, dc = make () in
  let conns () =
    Array.init 3 (fun i ->
        let c = hello_conn ~window:64 in
        Conn.set_token c i;
        c)
  in
  let ca = conns () and cc = conns () in
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wr;
  let ex = Executor.create ~shards:sc ~sg_limit ~ring_cap:16 ~wake_fd:wr in
  let cell = Array.make (Cell.req_width ~sg_limit) 0 in
  let rsp_cell = Array.make (Cell.rsp_width ~sg_limit) 0 in
  let ring_flush () =
    Dispatch.flush_cells dc ~cell ~emit:(fun ~shard:_ ->
        Alcotest.(check bool) "ring admits the cell" true
          (Spsc.try_push (Executor.request_ring ex) ~src:cell));
    ignore (Executor.step ex : int);
    while Spsc.try_pop (Executor.response_ring ex) ~dst:rsp_cell do
      let c = cc.(rsp_cell.(Cell.r_slot)) in
      if Conn.alive c then Dispatch.complete dc c ~cell:rsp_cell
    done
  in
  let req = Wire.create_req ~sg_limit in
  let b = Bytes.create 512 in
  let send i fin =
    let feed conn d flush =
      Conn.feed conn b ~pos:0 ~len:fin;
      Alcotest.(check bool) "frame decodes" true (Conn.next conn req > 0);
      if not (Dispatch.enqueue d conn req) then begin
        flush ();
        Alcotest.(check bool) "retry fits" true (Dispatch.enqueue d conn req)
      end
    in
    feed ca.(i) da (fun () -> Dispatch.flush_all da);
    feed cc.(i) dc ring_flush
  in
  (* flush both, require equal bytes, and decode path a's responses *)
  let round () =
    Dispatch.flush_all da;
    ring_flush ();
    Alcotest.(check int) "executed agree" (Dispatch.executed da)
      (Dispatch.executed dc);
    Alcotest.(check int) "rejected agree" (Dispatch.rejected da)
      (Dispatch.rejected dc);
    Array.mapi
      (fun i a ->
        let c = cc.(i) in
        let queued x = Bytes.sub_string (Conn.wbuf x) (Conn.wpos x) (Conn.queued x) in
        let q = queued a in
        Alcotest.(check string) "same response bytes" q (queued c);
        Conn.consumed a (Conn.queued a);
        Conn.consumed c (Conn.queued c);
        let out = ref [] and pos = ref 0 in
        let resp = Wire.create_resp ~sg_limit in
        let buf = Bytes.of_string q in
        while !pos < String.length q do
          let r = Wire.decode_response buf ~pos:!pos ~avail:(String.length q - !pos) resp in
          Alcotest.(check bool) "response decodes" true (r > 0);
          pos := !pos + r;
          let sg = Array.sub resp.Wire.r_iovas 0 resp.Wire.r_nseg in
          out := (resp.Wire.r_req_id, resp.Wire.status, resp.Wire.r_iova, sg) :: !out
        done;
        List.rev !out)
      ca
  in
  let find rs id =
    match List.find_opt (fun (r, _, _, _) -> r = id) rs with
    | Some x -> x
    | None -> Alcotest.failf "no response for req %d" id
  in
  let status_of rs id = match find rs id with _, st, _, _ -> st in
  let iova_of rs id = match find rs id with _, _, v, _ -> v in
  let sg_of rs id = match find rs id with _, _, _, sg -> sg in
  let page k = (Shard.next_buf sc.(k mod 2) :> int) in
  let huge = 0xFFFF_FFFF (* from a 0xFFF offset: more pages than any IOVA space *) in
  (* round 1: maps on three tenants, a map_sg, an exhausted map and
     map_sg (rolled back), an unknown tenant, a stats request, and a
     translate of nothing *)
  send 0 (Wire.encode_map b ~pos:0 ~tenant:1 ~req_id:1 ~phys:(page 0) ~bytes:4096);
  send 0
    (Wire.encode_map_sg b ~pos:0 ~tenant:1 ~req_id:2
       ~seg_phys:[| page 1 + 0x10; page 2 + 0x20; page 3 + 0x30 |]
       ~seg_bytes:[| 256; 4000; 4096 |] ~n:3);
  send 1 (Wire.encode_map b ~pos:0 ~tenant:2 ~req_id:3 ~phys:(page 4) ~bytes:4096);
  send 1 (Wire.encode_map b ~pos:0 ~tenant:2 ~req_id:4 ~phys:0xFFF ~bytes:huge);
  send 1
    (Wire.encode_map_sg b ~pos:0 ~tenant:2 ~req_id:5 ~seg_phys:[| page 5; 0xFFF |]
       ~seg_bytes:[| 4096; huge |] ~n:2);
  send 0 (Wire.encode_translate b ~pos:0 ~tenant:9 ~req_id:6 ~iova:0x5000 ~write:false);
  send 2 (Wire.encode_translate b ~pos:0 ~tenant:99 ~req_id:7 ~iova:0 ~write:false);
  send 2 (Wire.encode_stats b ~pos:0 ~tenant:0 ~req_id:8);
  let r1 = round () in
  Alcotest.(check int) "map ok" Wire.st_ok (status_of r1.(0) 1);
  Alcotest.(check int) "map_sg ok" Wire.st_ok (status_of r1.(0) 2);
  Alcotest.(check int) "second tenant maps" Wire.st_ok (status_of r1.(1) 3);
  Alcotest.(check int) "huge map exhausts" Wire.st_exhausted (status_of r1.(1) 4);
  Alcotest.(check int) "huge map_sg exhausts" Wire.st_exhausted (status_of r1.(1) 5);
  Alcotest.(check int) "translate of nothing faults" Wire.st_fault (status_of r1.(0) 6);
  Alcotest.(check int) "unknown tenant" Wire.st_bad_request (status_of r1.(2) 7);
  let iova1 = iova_of r1.(0) 1 and iova3 = iova_of r1.(1) 3 in
  let sg = sg_of r1.(0) 2 in
  Alcotest.(check int) "map_sg returns every iova" 3 (Array.length sg);
  (* round 2: enough requests on tenant 1 to fill its batch mid-stream;
     ok, fault and not_mapped on each of translate/unmap; tenant 2's
     requests from connection 2 are batched, then the connection dies *)
  Array.iteri
    (fun k iova ->
      send 0 (Wire.encode_translate b ~pos:0 ~tenant:1 ~req_id:(30 + k) ~iova ~write:true))
    sg;
  send 0 (Wire.encode_translate b ~pos:0 ~tenant:1 ~req_id:10 ~iova:iova1 ~write:true);
  send 0 (Wire.encode_unmap b ~pos:0 ~tenant:1 ~req_id:13 ~iova:iova1);
  send 0 (Wire.encode_unmap b ~pos:0 ~tenant:1 ~req_id:14 ~iova:iova1);
  send 0 (Wire.encode_translate b ~pos:0 ~tenant:1 ~req_id:15 ~iova:iova1 ~write:false);
  send 0 (Wire.encode_translate b ~pos:0 ~tenant:1 ~req_id:16 ~iova:iova1 ~write:false);
  send 1 (Wire.encode_unmap b ~pos:0 ~tenant:2 ~req_id:17 ~iova:(iova3 + 0x100000));
  send 2 (Wire.encode_translate b ~pos:0 ~tenant:2 ~req_id:11 ~iova:iova3 ~write:false);
  send 2 (Wire.encode_unmap b ~pos:0 ~tenant:2 ~req_id:12 ~iova:iova3);
  Conn.kill ca.(2);
  Conn.kill cc.(2);
  let r2 = round () in
  Alcotest.(check int) "translate ok" Wire.st_ok (status_of r2.(0) 10);
  Alcotest.(check int) "unmap ok" Wire.st_ok (status_of r2.(0) 13);
  Alcotest.(check int) "double unmap" Wire.st_not_mapped (status_of r2.(0) 14);
  Alcotest.(check int) "stale translate faults" Wire.st_fault (status_of r2.(0) 16);
  Alcotest.(check int) "unknown iova" Wire.st_not_mapped (status_of r2.(1) 17);
  Alcotest.(check int) "dead connection answered nothing" 0 (List.length r2.(2));
  (* round 3: the killed connection's unmap never ran, on either path *)
  send 1 (Wire.encode_translate b ~pos:0 ~tenant:2 ~req_id:20 ~iova:iova3 ~write:false);
  let r3 = round () in
  Alcotest.(check int) "dropped unmap left the mapping" Wire.st_ok (status_of r3.(1) 20);
  Alcotest.(check int) "every live request executed" 16 (Dispatch.executed da);
  Unix.close rd;
  Unix.close wr

(* {1 Netloop: the executor topology over a real socket} *)

let really_read fd b ~pos ~len =
  let off = ref 0 in
  while !off < len do
    let n = Unix.read fd b (pos + !off) (len - !off) in
    if n = 0 then Alcotest.fail "server closed the connection";
    off := !off + n
  done

(* The server binds on its own domain: retry until the path accepts. *)
let rec connect_retry path tries =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.01;
      connect_retry path (tries - 1)

(* One connection's fixed stream, as blocking round trips: hello and
   two maps, then translates and unmaps of the returned IOVAs (ok,
   fault and not_mapped outcomes). Returns every response frame's
   bytes in arrival order. A tenant lives on one shard, so its
   responses arrive in request order at any domain count. *)
let netloop_stream fd ~tenant ~bdf ~phys =
  let b = Bytes.create 512 in
  let resp = Wire.create_resp ~sg_limit in
  let got = Buffer.create 512 in
  let round ~pos n =
    let off = ref 0 in
    while !off < pos do
      off := !off + Unix.write fd b !off (pos - !off)
    done;
    Array.init n (fun _ ->
        let hdr = Bytes.create Wire.len_bytes in
        really_read fd hdr ~pos:0 ~len:Wire.len_bytes;
        let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
        let frame = Bytes.extend hdr 0 len in
        really_read fd frame ~pos:Wire.len_bytes ~len;
        Alcotest.(check int) "one whole response" (Bytes.length frame)
          (Wire.decode_response frame ~pos:0 ~avail:(Bytes.length frame) resp);
        Buffer.add_bytes got frame;
        (resp.Wire.status, resp.Wire.r_iova))
  in
  let pos = Wire.encode_hello b ~pos:0 ~bdf ~flags:0 in
  let pos = Wire.encode_map b ~pos ~tenant ~req_id:1 ~phys ~bytes:4096 in
  let pos = Wire.encode_map b ~pos ~tenant ~req_id:2 ~phys:(phys + 0x1000) ~bytes:8192 in
  let maps = round ~pos 2 in
  Array.iter (fun (st, _) -> Alcotest.(check int) "map ok" Wire.st_ok st) maps;
  let i1 = snd maps.(0) and i2 = snd maps.(1) in
  let pos = Wire.encode_translate b ~pos:0 ~tenant ~req_id:3 ~iova:i1 ~write:false in
  let pos = Wire.encode_translate b ~pos ~tenant ~req_id:4 ~iova:(i2 + 0x1000) ~write:true in
  let pos = Wire.encode_unmap b ~pos ~tenant ~req_id:5 ~iova:i1 in
  let pos = Wire.encode_translate b ~pos ~tenant ~req_id:6 ~iova:i1 ~write:false in
  let pos = Wire.encode_unmap b ~pos ~tenant ~req_id:7 ~iova:i1 in
  let pos = Wire.encode_unmap b ~pos ~tenant ~req_id:8 ~iova:i2 in
  let statuses = Array.map fst (round ~pos 6) in
  Alcotest.(check (array int)) "stream outcomes"
    Wire.[| st_ok; st_ok; st_ok; st_fault; st_not_mapped; st_ok |]
    statuses;
  Buffer.contents got

(* Serve two shards on a temp unix: path from a spawned domain, drive
   one connection per shard (each with its own tenant, picked so that
   it pins to that shard), raise the stop flag and join. *)
let serve_streams ~domains =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rio-test-net-%d-%d.sock" (Unix.getpid ()) domains)
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let shards = make_shards 2 in
  let probe = Dispatch.create ~shards:(make_shards 2) ~batch:1 ~sg_limit () in
  let cfg =
    { (Netloop.default_config ~addr:(Netloop.Unix_path path)) with domains; sg_limit }
  in
  let stop = Rio_exec.Flag.create () in
  let server = Domain.spawn (fun () -> Netloop.serve ~stop ~shards cfg) in
  let bytes =
    Fun.protect
      ~finally:(fun () -> Rio_exec.Flag.set stop)
      (fun () ->
        Array.init 2 (fun shard ->
            let bdf = 0x100 + shard in
            let rec pick tenant =
              if Dispatch.shard_of probe ~tenant ~bdf = shard then tenant
              else pick (tenant + 1)
            in
            let fd = connect_retry path 500 in
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                netloop_stream fd ~tenant:(pick (1 + (16 * shard))) ~bdf
                  ~phys:(0x40_0000 * (shard + 1)))))
  in
  (Domain.join server, bytes)

let test_netloop_two_domains () =
  let one, bytes1 = serve_streams ~domains:1 in
  let two, bytes2 = serve_streams ~domains:2 in
  Alcotest.(check int) "one loop domain" 1 one.Netloop.domains;
  Alcotest.(check int) "two executor domains" 2 two.Netloop.domains;
  Array.iteri
    (fun e n ->
      Alcotest.(check bool) (Printf.sprintf "executor %d ran requests" e) true (n > 0))
    two.Netloop.domain_ops;
  List.iter
    (fun (s : Netloop.stats) ->
      Alcotest.(check int) "requests = responses" s.requests s.responses)
    [ one; two ];
  Alcotest.(check (array string)) "same response bytes at 1 and 2 domains" bytes1
    bytes2

(* {1 Netloop: one slot table} *)

(* A client that has sent its hello. [None] when the server refused it:
   the connection reads EOF (or a reset, the hello being unread). *)
let open_client path =
  let fd = connect_retry path 500 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let b = Bytes.create Wire.hello_bytes in
  let n = Wire.encode_hello b ~pos:0 ~bdf:0x0100 ~flags:0 in
  match Unix.write fd b 0 n with
  | _ -> fd
  | exception Unix.Unix_error (Unix.EPIPE, _, _) -> fd

(* One translate round trip of an unmapped IOVA: [Some status], or
   [None] on EOF. *)
let ping fd ~req_id =
  let b = Bytes.create 64 in
  let n = Wire.encode_translate b ~pos:0 ~tenant:0 ~req_id ~iova:0x5000 ~write:false in
  match
    ignore (Unix.write fd b 0 n : int);
    Unix.read fd b 0 Wire.len_bytes
  with
  | 0 | (exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)) -> None
  | got ->
      really_read fd b ~pos:got ~len:(Wire.len_bytes - got);
      let len = Int32.to_int (Bytes.get_int32_le b 0) in
      really_read fd b ~pos:Wire.len_bytes ~len;
      let resp = Wire.create_resp ~sg_limit in
      ignore (Wire.decode_response b ~pos:0 ~avail:(Wire.len_bytes + len) resp : int);
      Alcotest.(check int) "response echoes req_id" req_id resp.Wire.r_req_id;
      Some resp.Wire.status

(* [max_conns 2]: two clients are served and a third is refused. Closing
   the first leaves a hole below the second's live slot; a new client is
   served in it (retried while the reap is pending) beside the second. *)
let test_netloop_slot_table () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rio-test-net-%d-slots.sock" (Unix.getpid ()))
  in
  let shards = make_shards 1 in
  let cfg =
    {
      (Netloop.default_config ~addr:(Netloop.Unix_path path)) with
      max_conns = 2;
      sg_limit;
    }
  in
  (* a write to the refused client must fail with EPIPE, not end the
     test process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = Rio_exec.Flag.create () in
  let server = Domain.spawn (fun () -> Netloop.serve ~stop ~shards cfg) in
  let served fd ~req_id =
    Alcotest.(check (option int)) "served" (Some Wire.st_fault) (ping fd ~req_id)
  in
  Fun.protect
    ~finally:(fun () -> Rio_exec.Flag.set stop)
    (fun () ->
      let c1 = open_client path in
      served c1 ~req_id:1;
      let c2 = open_client path in
      served c2 ~req_id:2;
      let c3 = open_client path in
      Alcotest.(check (option int)) "third refused" None (ping c3 ~req_id:3);
      Unix.close c3;
      Unix.close c1;
      let rec reconnect tries =
        let fd = open_client path in
        match ping fd ~req_id:4 with
        | Some st -> (fd, st)
        | None when tries > 0 ->
            Unix.close fd;
            Unix.sleepf 0.01;
            reconnect (tries - 1)
        | None -> Alcotest.fail "the freed slot was never reused"
      in
      let c4, st = reconnect 500 in
      Alcotest.(check int) "served in the freed slot" Wire.st_fault st;
      served c2 ~req_id:5;
      served c4 ~req_id:6;
      Unix.close c2;
      Unix.close c4);
  let st = Domain.join server in
  Alcotest.(check int) "requests = responses" st.Netloop.requests st.Netloop.responses;
  Alcotest.(check bool) "refused at least once" true (st.Netloop.refused >= 1);
  Alcotest.(check int) "three clients served" 3 st.Netloop.accepted

(* {1 Netloop: the final report} *)

(* Both renderings of a fixed stats record over two shards, one map and
   one translate on the first: the summary lines and the riommu-serve-net/1
   fields that CI and the e2e harness parse. *)
let report_fixture () =
  let shards = make_shards 2 in
  let phys = Shard.next_buf shards.(0) in
  let iova = Shard.map shards.(0) ~tenant:1 ~phys ~bytes:4096 in
  if iova < 0 then Alcotest.fail "fixture map";
  ignore (Shard.translate_record shards.(0) ~tenant:1 ~iova ~write:true : Addr.phys);
  let stats =
    {
      Netloop.domains = 2;
      domain_ops = [| 5; 7 |];
      accepted = 4;
      refused = 1;
      closed = 3;
      requests = 12;
      responses = 12;
      protocol_errors = 1;
      batch_flushes = 5;
      rejected = 2;
      bytes_in = 480;
      bytes_out = 360;
    }
  in
  let cfg =
    {
      (Netloop.default_config ~addr:(Netloop.Unix_path "rio.sock")) with
      batch = 16;
      window = 32;
      max_conns = 8;
    }
  in
  (stats, shards, cfg)

(* The counters the binary reads once at exit, fixed here so that the
   rendering is pinned byte for byte. *)
let fixture_gc =
  {
    (Gc.quick_stat ()) with
    Gc.minor_collections = 3;
    major_collections = 1;
    heap_words = 61_440;
    top_heap_words = 65_536;
  }

let expected_summary =
  {|riommu-serve --listen unix:rio.sock
  domains 2  max-conns 8
  domain ops: d0 5 d1 7
  wall 1.50s  conns 4 (refused 1, protocol errors 1)
  requests 12  responses 12  rejected 2
  batch flushes 5 (realized batch 2.4)
  ops: map 1 unmap 0 translate 1 map_sg 0  (total 2, faults 0)
  bytes in 480 out 360
|}

let expected_json =
  {|{
  "schema": "riommu-serve-net/1",
  "addr": "unix:rio.sock",
  "shards": 2, "batch": 16, "window": 32,
  "domains": 2,
  "domain_ops": [5, 7],
  "wall_s": 1.500000,
  "ops": 2,
  "ops_per_sec": 1.3,
  "requests": 12, "responses": 12, "rejected": 2,
  "accepted": 4, "refused": 1, "closed": 3, "protocol_errors": 1,
  "batch_flushes": 5, "realized_batch": 2.40,
  "bytes_in": 480, "bytes_out": 360,
  "faults": 0,
  "groups": [
    { "name": "net/map", "iters": 1, "p50_cycles": 2198, "p99_cycles": 2198, "p999_cycles": 2198, "max_cycles": 2198 },
    { "name": "net/unmap", "iters": 0, "p50_cycles": 0, "p99_cycles": 0, "p999_cycles": 0, "max_cycles": 0 },
    { "name": "net/translate", "iters": 1, "p50_cycles": 1532, "p99_cycles": 1532, "p999_cycles": 1532, "max_cycles": 1532 },
    { "name": "net/map_sg", "iters": 0, "p50_cycles": 0, "p99_cycles": 0, "p999_cycles": 0, "max_cycles": 0 }
  ],
  "tenants": [
    { "tenant": 0, "ops": 0, "iotlb_hit_rate": 0.0000, "p50_cycles": 0, "p99_cycles": 0, "p999_cycles": 0 },
    { "tenant": 1, "ops": 2, "iotlb_hit_rate": 0.0000, "p50_cycles": 1535, "p99_cycles": 2198, "p999_cycles": 2198 },
    { "tenant": 2, "ops": 0, "iotlb_hit_rate": 0.0000, "p50_cycles": 0, "p99_cycles": 0, "p999_cycles": 0 },
    { "tenant": 3, "ops": 0, "iotlb_hit_rate": 0.0000, "p50_cycles": 0, "p99_cycles": 0, "p999_cycles": 0 }
  ],
  "gc": { "minor_collections": 3, "major_collections": 1, "heap_words": 61440, "top_heap_words": 65536 }
}
|}

let test_netloop_report () =
  let stats, shards, cfg = report_fixture () in
  Alcotest.(check string) "summary" expected_summary
    (Netloop.render_summary stats ~shards cfg ~wall_s:1.5);
  Alcotest.(check string) "riommu-serve-net/1" expected_json
    (Netloop.render_json stats ~shards cfg ~wall_s:1.5 ~gc:fixture_gc)

(* {1 Runner} *)

let () =
  Alcotest.run "rio_serve_net"
    [
      ( "wire",
        [
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          Alcotest.test_case "typed protocol errors" `Quick test_wire_errors;
          QCheck_alcotest.to_alcotest prop_accessors_match_u16;
        ] );
      ( "conn",
        [
          Alcotest.test_case "byte-at-a-time reassembly" `Quick
            test_conn_reassembly;
          Alcotest.test_case "killed on garbage" `Quick test_conn_kill_on_garbage;
          Alcotest.test_case "backpressure admission" `Quick
            test_conn_backpressure;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "affinity pinning" `Quick test_dispatch_affinity;
          Alcotest.test_case "map/translate/unmap roundtrip" `Quick
            test_dispatch_map_translate_roundtrip;
          Alcotest.test_case "batch-full handoff" `Quick test_dispatch_batch_full;
          Alcotest.test_case "bad tenant rejected" `Quick
            test_dispatch_rejects_bad_tenant;
          Alcotest.test_case "tenant registry grows" `Quick
            test_dispatch_registry_grows;
          Alcotest.test_case "malformed ops answered" `Quick
            test_dispatch_malformed_ops;
          Alcotest.test_case "ring-churn batch allocates nothing" `Quick
            test_dispatch_zero_alloc;
        ] );
      ( "spsc",
        [
          QCheck_alcotest.to_alcotest prop_spsc_oracle;
          Alcotest.test_case "full/empty/wraparound" `Quick
            test_spsc_boundaries;
        ] );
      ( "readiness",
        [ Alcotest.test_case "poll backend" `Quick test_readiness_pipes ] );
      ( "executor",
        [
          Alcotest.test_case "cells through the ring" `Quick
            test_executor_step_roundtrip;
          Alcotest.test_case "inline matches the ring" `Quick
            test_inline_matches_ring;
          Alcotest.test_case "socket at 2 domains = 1" `Quick
            test_netloop_two_domains;
        ] );
      ( "netloop",
        [
          Alcotest.test_case "slot reuse, refusal, holes" `Quick
            test_netloop_slot_table;
          Alcotest.test_case "summary and stats JSON" `Quick test_netloop_report;
        ] );
    ]
