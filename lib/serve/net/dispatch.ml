(* Shard-affinity dispatch: every decoded request is appended to a
   per-shard batch (request cells, preallocated at create), and
   batches execute in shard order at flush points. A tenant is pinned
   to one shard on first sight — hash of (tenant, presenting bdf) —
   so its domain, IOVA allocator, and IOTLB working set stay on one
   manager for the connection's lifetime, exactly the affinity the
   simulated service gets from its static flow partition.

   A batch slot is laid out as a {!Cell} request cell, so neither
   flush repacks it for the one op body: [flush_all] runs
   [Executor.exec] on it in place and [complete]s the response cell;
   [flush_cells] copies it onto an executor's ring. [enqueue], all
   four arms of the body, [complete] and [flush_all] are
   allocation-free after warm-up (lint manifest, the dispatch-translate
   bench gate and test_net's ring-churn batch). *)

open Rio_serve

type t = {
  shards : Shard.t array;
  cap : int;  (* batch slots per shard *)
  sg_limit : int;
  qw : int;  (* request-cell width *)
  rsp_max : int;
  (* tenant registry: global wire tenant -> (shard, domain slot),
     covering the wire tenants up to the highest one seen so far
     ([grow_registry]), never more than [max_tenants] *)
  max_tenants : int;
  mutable tenant_shard : int array;  (* -1 = unseen *)
  mutable tenant_slot : int array;
  next_slot : int array;  (* per shard: next free domain index *)
  (* one-entry placement cache: consecutive requests overwhelmingly
     share a tenant (a client connection drives one tenant), and a
     pinned tenant's placement never changes, so a hit skips the
     registry loads entirely and can never be stale *)
  mutable last_tenant : int;  (* -1 = cold *)
  mutable last_shard : int;
  mutable last_slot : int;
  (* per-shard batches, flattened: slot [shard * cap + i] is the
     request cell at [b_cells.((shard * cap + i) * qw ..)]; its
     [q_slot] lane is stamped only when it is copied onto a ring *)
  count : int array;
  b_conn : Conn.t array;
  b_cells : int array;
  (* inline execute (flush runs on one thread, shard-sequential) *)
  body : Executor.body;
  rc : int array;  (* response-cell scratch *)
  sg_iovas : int array;
  mutable stats_cb : Conn.t -> int -> unit;  (* conn, req_id *)
  mutable executed : int;
  mutable flushes : int;
  mutable rejected : int;
  dummy : Conn.t;
}

let default_stats_cb conn req_id =
  let off = Conn.reserve conn (Wire.len_bytes + Wire.header_bytes + Wire.stats_payload_bytes) in
  if off < 0 then Conn.kill conn
  else begin
    Conn.commit conn
      (Wire.encode_stats_ok (Conn.wbuf conn) ~pos:off ~req_id ~ops:0 ~requests:0
         ~conns:0 ~errors:0 ~faults:0);
    Conn.completed conn
  end

let create ~shards ~batch ~sg_limit ?(max_tenants = 4096) () =
  let nshards = Array.length shards in
  if nshards < 1 then invalid_arg "Dispatch.create: shards";
  if batch < 1 then invalid_arg "Dispatch.create: batch";
  if sg_limit < 1 then invalid_arg "Dispatch.create: sg_limit";
  let slots = nshards * batch in
  let qw = Cell.req_width ~sg_limit in
  let dummy =
    Conn.create ~rbuf_bytes:(Wire.max_request_bytes ~sg_limit:1) ~window:1
      ~sg_limit:1 ()
  in
  {
    shards;
    cap = batch;
    sg_limit;
    qw;
    rsp_max = Wire.max_response_bytes ~sg_limit;
    max_tenants;
    tenant_shard = [||];
    tenant_slot = [||];
    next_slot = Array.make nshards 0;
    last_tenant = -1;
    last_shard = 0;
    last_slot = 0;
    count = Array.make nshards 0;
    b_conn = Array.make slots dummy;
    b_cells = Array.make (slots * qw) 0;
    body = Executor.body ~shards ~sg_limit;
    rc = Array.make (Cell.rsp_width ~sg_limit) 0;
    sg_iovas = Array.make sg_limit 0;
    stats_cb = default_stats_cb;
    executed = 0;
    flushes = 0;
    rejected = 0;
    dummy;
  }

let set_stats_cb t cb = t.stats_cb <- cb
let executed t = t.executed
let flushes t = t.flushes
let rejected t = t.rejected

(* Fibonacci/Murmur-style mix of the affinity key, finished with an
   avalanche so the mod sees more than the key's low bits — without
   it, [mod 2^k] reduces to the XOR of the low tenant/bdf bits, and
   clients that step tenant and bdf together pin every tenant to
   shard 0. [land max_int] keeps it non-negative on 63-bit ints. *)
let shard_of t ~tenant ~bdf =
  let h = (tenant * 0x9E3779B1) lxor (bdf * 0x85EBCA77) in
  let h = (h lxor (h lsr 31)) * 0xC2B2AE3D in
  let h = h lxor (h lsr 16) in
  h land max_int mod Array.length t.shards

(* Cover wire tenant [tenant] (below [max_tenants]): the registry
   doubles from 16 entries until it does. Host memory for traffic that
   came, once per new high tenant id, never in steady state. *)
let grow_registry t tenant =
  let len = Array.length t.tenant_shard in
  let n = ref (max 16 len) in
  while !n <= tenant do
    n := 2 * !n
  done;
  let n = min !n t.max_tenants in
  let shard = Array.make n (-1) and slot = Array.make n 0 in
  Array.blit t.tenant_shard 0 shard 0 len;
  Array.blit t.tenant_slot 0 slot 0 len;
  t.tenant_shard <- shard;
  t.tenant_slot <- slot

(* Answer a request with a payload-less error status right away (the
   tenant never reached a shard). Allocation-free. *)
let reject t conn ~op ~req_id =
  t.rejected <- t.rejected + 1;
  let off = Conn.reserve conn t.rsp_max in
  if off < 0 then Conn.kill conn
  else begin
    Conn.commit conn
      (Wire.encode_error (Conn.wbuf conn) ~pos:off ~op
         ~status:Wire.st_bad_request ~req_id);
    Conn.completed conn
  end

let phys_bits = 52

(* A segment is malformed, not an engine op, when it maps zero bytes
   ([Driver] raises [Invalid_argument] on it) or its last byte lies at
   or past [2^phys_bits] (past any host address, and near enough to
   [max_int] that the page arithmetic overflows). Written as
   [phys > limit - bytes] so the check itself cannot overflow: wire
   [bytes] are u32s. *)
let bad_seg ~phys ~bytes = bytes = 0 || phys > (1 lsl phys_bits) - bytes

let rec bad_segs req i =
  i < req.Wire.nseg
  && (bad_seg ~phys:req.Wire.seg_phys.(i) ~bytes:req.Wire.seg_bytes.(i)
     || bad_segs req (i + 1))

let bad_map req =
  let op = req.Wire.op in
  if op = Wire.op_map then bad_seg ~phys:req.Wire.phys ~bytes:req.Wire.bytes
  else op = Wire.op_map_sg && bad_segs req 0

(* Append one decoded request to its shard's batch. [true] = handled
   (queued, answered as bad_request, or answered as stats); [false] =
   the shard's batch is full — flush and retry. Allocation-free: the
   registry and the batch are int arrays (the registry grows only at
   the first sight of a tenant past its end), and nothing of the
   caller's [req] outlives the call but plain ints. *)
let enqueue t conn req =
  let op = req.Wire.op in
  if op = Wire.op_stats then begin
    t.stats_cb conn req.Wire.req_id;
    true
  end
  else begin
    let tenant = req.Wire.tenant in
    if tenant >= t.max_tenants || bad_map req then begin
      reject t conn ~op ~req_id:req.Wire.req_id;
      true
    end
    else begin
      let sh =
        if tenant = t.last_tenant then t.last_shard
        else begin
          if tenant >= Array.length t.tenant_shard then grow_registry t tenant;
          let sh0 = t.tenant_shard.(tenant) in
          if sh0 >= 0 then begin
            t.last_tenant <- tenant;
            t.last_shard <- sh0;
            t.last_slot <- t.tenant_slot.(tenant);
            sh0
          end
          else begin
            let s = shard_of t ~tenant ~bdf:(Conn.bdf conn) in
            if t.next_slot.(s) >= Shard.tenants t.shards.(s) then -1
            else begin
              let sl = t.next_slot.(s) in
              t.tenant_shard.(tenant) <- s;
              t.tenant_slot.(tenant) <- sl;
              t.next_slot.(s) <- sl + 1;
              t.last_tenant <- tenant;
              t.last_shard <- s;
              t.last_slot <- sl;
              s
            end
          end
        end
      in
      if sh < 0 then begin
        reject t conn ~op ~req_id:req.Wire.req_id;
        true
      end
      else begin
        let c = t.count.(sh) in
        if c >= t.cap then false
        else begin
          let base = (sh * t.cap) + c in
          let q = t.b_cells and at = base * t.qw in
          t.b_conn.(base) <- conn;
          q.(at + Cell.q_shard) <- sh;
          q.(at + Cell.q_op) <- op;
          q.(at + Cell.q_tenant) <- t.last_slot;
          q.(at + Cell.q_req_id) <- req.Wire.req_id;
          if op = Wire.op_map then begin
            q.(at + Cell.q_a) <- req.Wire.phys;
            q.(at + Cell.q_b) <- req.Wire.bytes
          end
          else if op = Wire.op_map_sg then begin
            let n = req.Wire.nseg in
            q.(at + Cell.q_nseg) <- n;
            Array.blit req.Wire.seg_phys 0 q (at + Cell.q_segs) n;
            Array.blit req.Wire.seg_bytes 0 q (at + Cell.q_segs + t.sg_limit) n
          end
          else begin
            q.(at + Cell.q_a) <- req.Wire.iova;
            q.(at + Cell.q_b) <- (if req.Wire.write then 1 else 0)
          end;
          t.count.(sh) <- c + 1;
          true
        end
      end
    end
  end

let pending t =
  let n = ref 0 in
  Array.iter (fun c -> n := !n + c) t.count;
  !n

(* Encode one response cell into its connection's write buffer and
   retire its in-flight slot — the tail of every execute, inline or
   through an executor, so [executed] counts the same either way.
   Allocation-free: the map_sg iova lanes blit through the dispatcher's
   scratch rather than slicing the cell. *)
let complete t conn ~cell =
  let off = Conn.reserve conn t.rsp_max in
  if off < 0 then Conn.kill conn
  else begin
    let op = cell.(Cell.r_op) in
    let status = cell.(Cell.r_status) in
    let req_id = cell.(Cell.r_req_id) in
    (if status <> Wire.st_ok then
       Conn.commit conn
         (Wire.encode_error (Conn.wbuf conn) ~pos:off ~op ~status ~req_id)
     else if op = Wire.op_translate then
       Conn.commit conn
         (Wire.encode_translate_ok (Conn.wbuf conn) ~pos:off ~req_id
            ~phys:cell.(Cell.r_value))
     else if op = Wire.op_map then
       Conn.commit conn
         (Wire.encode_map_ok (Conn.wbuf conn) ~pos:off ~req_id
            ~iova:cell.(Cell.r_value))
     else if op = Wire.op_unmap then
       Conn.commit conn (Wire.encode_unmap_ok (Conn.wbuf conn) ~pos:off ~req_id)
     else begin
       let n = cell.(Cell.r_nseg) in
       Array.blit cell Cell.r_iovas t.sg_iovas 0 n;
       Conn.commit conn
         (Wire.encode_map_sg_ok (Conn.wbuf conn) ~pos:off ~req_id
            ~iovas:t.sg_iovas ~n)
     end);
    Conn.completed conn;
    t.executed <- t.executed + 1
  end

(* The single-domain flush: every live slot runs through the op body
   in place and is completed at once. Slots whose connection died
   while batched are dropped — they never execute. *)
let flush_all t =
  for sh = 0 to Array.length t.shards - 1 do
    let n = t.count.(sh) in
    if n > 0 then begin
      t.flushes <- t.flushes + 1;
      for i = 0 to n - 1 do
        let base = (sh * t.cap) + i in
        let conn = t.b_conn.(base) in
        if Conn.alive conn then begin
          Executor.exec t.body ~req:t.b_cells ~at:(base * t.qw) ~rsp:t.rc;
          complete t conn ~cell:t.rc
        end;
        t.b_conn.(base) <- t.dummy
      done;
      t.count.(sh) <- 0
    end
  done

(* Multi-domain flush: copy each live slot's request cell into the
   caller's scratch, stamped with its connection's slot token for the
   response's way back, and hand it to [emit], which pushes it onto the
   owning executor's ring. Dead connections' slots are dropped, as in
   flush_all — they never become in-flight cells. *)
let flush_cells t ~cell ~emit =
  let q = t.b_cells in
  for sh = 0 to Array.length t.shards - 1 do
    let n = t.count.(sh) in
    if n > 0 then begin
      t.flushes <- t.flushes + 1;
      for i = 0 to n - 1 do
        let base = (sh * t.cap) + i in
        let conn = t.b_conn.(base) in
        if Conn.alive conn then begin
          let at = base * t.qw in
          for k = 0 to Cell.q_segs - 1 do
            cell.(k) <- q.(at + k)
          done;
          cell.(Cell.q_slot) <- Conn.token conn;
          if q.(at + Cell.q_op) = Wire.op_map_sg then begin
            let m = q.(at + Cell.q_nseg) in
            Array.blit q (at + Cell.q_segs) cell Cell.q_segs m;
            Array.blit q (at + Cell.q_segs + t.sg_limit) cell
              (Cell.q_segs + t.sg_limit) m
          end;
          emit ~shard:sh
        end;
        t.b_conn.(base) <- t.dummy
      done;
      t.count.(sh) <- 0
    end
  done
