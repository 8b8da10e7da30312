(* Shard executor: pop request cells, run them against the owning
   shard, push response cells. See the mli for the topology story.

   [exec] is the one op body of the socket service: the executor's
   [step] runs it on popped cells, and [Dispatch.flush_all] runs it
   inline on its batch slots (same lane layout) at one domain.

   Everything here runs on the executor's domain except [create] and
   [request_stop]; cross-domain traffic is exactly the two SPSC rings,
   the stop flag, and wake bytes down the pipe. *)

open Rio_memory
open Rio_serve

type body = {
  shards : Shard.t array;
  sg_limit : int;
  phys : Addr.phys array; (* map_sg scratch: the cell's two segment lanes *)
  bytes : int array;
  iovas : int array;
}

let body ~shards ~sg_limit =
  {
    shards;
    sg_limit;
    phys = Array.make sg_limit (Addr.phys_of_int 0);
    bytes = Array.make sg_limit 0;
    iovas = Array.make sg_limit 0;
  }

(* The fault is the constant Manager.Translation_fault — the tenant
   driver's Driver.Translation_fault, or an unknown rid — pre-allocated
   and already counted by the time it escapes, so the whole op is
   allocation-free. *)
let exec_translate sh ~tenant ~iova ~write ~rsp =
  match Shard.translate_record sh ~tenant ~iova ~write with
  | phys ->
      rsp.(Cell.r_status) <- Wire.st_ok;
      rsp.(Cell.r_value) <- Addr.to_int phys
  | exception Rio_domain.Manager.Translation_fault ->
      rsp.(Cell.r_status) <- Wire.st_fault

let exec_map sh ~tenant ~phys ~bytes ~rsp =
  match Shard.map_record sh ~tenant ~phys:(Addr.phys_of_int phys) ~bytes with
  | Ok iova ->
      rsp.(Cell.r_status) <- Wire.st_ok;
      rsp.(Cell.r_value) <- iova
  | Error `Exhausted -> rsp.(Cell.r_status) <- Wire.st_exhausted

let exec_unmap sh ~tenant ~iova ~rsp =
  match Shard.unmap_record sh ~tenant ~iova with
  | Ok () -> rsp.(Cell.r_status) <- Wire.st_ok
  | Error `Not_mapped -> rsp.(Cell.r_status) <- Wire.st_not_mapped

let exec_map_sg b sh ~tenant ~req ~at ~rsp =
  let nseg = req.(at + Cell.q_nseg) in
  let segs = at + Cell.q_segs in
  for k = 0 to nseg - 1 do
    b.phys.(k) <- Addr.phys_of_int req.(segs + k);
    b.bytes.(k) <- req.(segs + b.sg_limit + k)
  done;
  match
    Shard.map_sg_record sh ~tenant ~phys:b.phys ~bytes:b.bytes ~n:nseg
      ~iovas:b.iovas
  with
  | Ok _span ->
      rsp.(Cell.r_status) <- Wire.st_ok;
      rsp.(Cell.r_nseg) <- nseg;
      Array.blit b.iovas 0 rsp Cell.r_iovas nseg
  | Error `Exhausted -> rsp.(Cell.r_status) <- Wire.st_exhausted

let exec b ~req ~at ~rsp =
  let op = req.(at + Cell.q_op) in
  let sh = b.shards.(req.(at + Cell.q_shard)) in
  let tenant = req.(at + Cell.q_tenant) in
  rsp.(Cell.r_slot) <- req.(at + Cell.q_slot);
  rsp.(Cell.r_op) <- op;
  rsp.(Cell.r_req_id) <- req.(at + Cell.q_req_id);
  rsp.(Cell.r_nseg) <- 0;
  if op = Wire.op_translate then
    exec_translate sh ~tenant ~iova:req.(at + Cell.q_a)
      ~write:(req.(at + Cell.q_b) <> 0) ~rsp
  else if op = Wire.op_map then
    exec_map sh ~tenant ~phys:req.(at + Cell.q_a) ~bytes:req.(at + Cell.q_b)
      ~rsp
  else if op = Wire.op_unmap then exec_unmap sh ~tenant ~iova:req.(at + Cell.q_a) ~rsp
  else exec_map_sg b sh ~tenant ~req ~at ~rsp

type t = {
  body : body;
  req : Spsc.t;
  rsp : Spsc.t;
  stop : bool Atomic.t;
  wake_fd : Unix.file_descr;
  wake_byte : Bytes.t;
  qc : int array; (* request-cell scratch *)
  rc : int array; (* response-cell scratch *)
  mutable executed : int; (* plain int: single writer (this domain) *)
}

let create ~shards ~sg_limit ~ring_cap ~wake_fd =
  {
    body = body ~shards ~sg_limit;
    req = Spsc.create ~cap:ring_cap ~width:(Cell.req_width ~sg_limit);
    rsp = Spsc.create ~cap:ring_cap ~width:(Cell.rsp_width ~sg_limit);
    stop = Atomic.make false;
    wake_fd;
    wake_byte = Bytes.make 1 '!';
    qc = Array.make (Cell.req_width ~sg_limit) 0;
    rc = Array.make (Cell.rsp_width ~sg_limit) 0;
    executed = 0;
  }

let request_ring t = t.req
let response_ring t = t.rsp
let request_stop t = Atomic.set t.stop true
let executed t = t.executed

(* The response ring can only be momentarily full: the IO domain
   drains every response ring on every wakeup and never blocks on our
   request ring, so spinning here cannot deadlock. *)
let push_rsp t =
  while not (Spsc.try_push t.rsp ~src:t.rc) do
    Domain.cpu_relax ()
  done

let step t =
  let n = ref 0 in
  while Spsc.try_pop t.req ~dst:t.qc do
    incr n;
    exec t.body ~req:t.qc ~at:0 ~rsp:t.rc;
    push_rsp t;
    t.executed <- t.executed + 1
  done;
  !n

let wake t =
  match Unix.single_write t.wake_fd t.wake_byte 0 1 with
  | _ -> ()
  | exception Unix.Unix_error _ ->
      (* EAGAIN: pipe full, a wakeup is already pending *) ()

let run t =
  let spins = ref 0 in
  let live = ref true in
  while !live do
    if step t > 0 then begin
      wake t;
      spins := 0
    end
    else if Atomic.get t.stop then
      (* stop is checked only after an empty step, so every cell
         pushed before request_stop is executed before exit *)
      live := false
    else begin
      incr spins;
      if !spins <= 64 then Domain.cpu_relax ()
      else Unix.sleepf 5e-05
    end
  done
