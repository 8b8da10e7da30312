(* riommu-wire/1: the length-prefixed binary framing the socket
   transport speaks. Every multi-byte accessor is one bounds-checked
   load or store (Bytes.get_int32_le / get_int64_le and their setters)
   converted to or from an immediate int in the same expression, which
   ocamlopt compiles without boxing the Int32/Int64 — so decode and
   encode touch only the caller's buffers and the preallocated request
   record. The decode
   convention is an int, not a result: [> 0] bytes consumed, [0] need
   more bytes, [< 0] a typed protocol error ({!error_of_code}), so the
   hot path never allocates an [Ok]/[Error] box. *)

let magic = 0xA7
let hello_magic = "RIOWIRE1"
let hello_bytes = 16
let len_bytes = 4
let header_bytes = 8
let stats_payload_bytes = 40

let op_map = 1
let op_unmap = 2
let op_map_sg = 3
let op_translate = 4
let op_stats = 5

let st_ok = 0
let st_exhausted = 1
let st_not_mapped = 2
let st_fault = 3
let st_bad_request = 4

type error = Bad_magic | Bad_op | Bad_length | Oversized | Bad_segs | Bad_hello

let error_code = function
  | Bad_magic -> -1
  | Bad_op -> -2
  | Bad_length -> -3
  | Oversized -> -4
  | Bad_segs -> -5
  | Bad_hello -> -6

let error_of_code = function
  | -1 -> Bad_magic
  | -2 -> Bad_op
  | -3 -> Bad_length
  | -4 -> Oversized
  | -5 -> Bad_segs
  | -6 -> Bad_hello
  | _ -> invalid_arg "Wire.error_of_code"

let error_name = function
  | Bad_magic -> "bad_magic"
  | Bad_op -> "bad_op"
  | Bad_length -> "bad_length"
  | Oversized -> "oversized"
  | Bad_segs -> "bad_segs"
  | Bad_hello -> "bad_hello"

(* Little-endian accessors, one load or store each. Values are 62-bit:
   the top two bits of the wire u64 are masked on encode and ignored on
   decode, keeping every quantity an immediate OCaml int (addresses in
   this codebase are <= 2^48 anyway). *)

let get_u8 = Bytes.get_uint8
let set_u8 = Bytes.set_uint8
let get_u16 = Bytes.get_uint16_le
let set_u16 = Bytes.set_uint16_le
let u62_mask = (1 lsl 62) - 1
let[@inline] get_u32 b p = Int32.to_int (Bytes.get_int32_le b p) land 0xFFFF_FFFF
let[@inline] set_u32 b p v = Bytes.set_int32_le b p (Int32.of_int v)
let[@inline] get_u64 b p = Int64.to_int (Bytes.get_int64_le b p) land u62_mask
let[@inline] set_u64 b p v = Bytes.set_int64_le b p (Int64.of_int (v land u62_mask))

(* Requests *)

type req = {
  mutable op : int;
  mutable tenant : int;
  mutable req_id : int;
  mutable phys : int;  (** map *)
  mutable bytes : int;  (** map *)
  mutable iova : int;  (** unmap, translate *)
  mutable write : bool;  (** translate *)
  mutable nseg : int;  (** map_sg *)
  seg_phys : int array;
  seg_bytes : int array;
}

let create_req ~sg_limit =
  if sg_limit < 1 then invalid_arg "Wire.create_req: sg_limit";
  {
    op = 0;
    tenant = 0;
    req_id = 0;
    phys = 0;
    bytes = 0;
    iova = 0;
    write = false;
    nseg = 0;
    seg_phys = Array.make sg_limit 0;
    seg_bytes = Array.make sg_limit 0;
  }

let sg_limit req = Array.length req.seg_phys
let max_body ~sg_limit = header_bytes + 2 + (12 * sg_limit)
let max_request_bytes ~sg_limit = len_bytes + max_body ~sg_limit

let max_response_bytes ~sg_limit =
  let payload = if (2 + (8 * sg_limit)) > stats_payload_bytes then 2 + (8 * sg_limit) else stats_payload_bytes in
  len_bytes + header_bytes + payload

(* Decode one request frame at [pos] given [avail] readable bytes.
   Single pass, no intermediate values beyond ints; the payload is
   validated to be exactly the length the op demands before any field
   is trusted. *)
let decode_request b ~pos ~avail req =
  if avail < len_bytes then 0
  else begin
    let len = get_u32 b pos in
    let lim = sg_limit req in
    if len < header_bytes then error_code Bad_length
    else if len > max_body ~sg_limit:lim then error_code Oversized
    else if avail < len_bytes + len then 0
    else begin
      let h = pos + len_bytes in
      if get_u8 b h <> magic then error_code Bad_magic
      else begin
        let op = get_u8 b (h + 1) in
        let plen = len - header_bytes in
        let p = h + header_bytes in
        let consumed = len_bytes + len in
        req.tenant <- get_u16 b (h + 2);
        req.req_id <- get_u32 b (h + 4);
        match op with
        | 1 ->
            if plen <> 12 then error_code Bad_length
            else begin
              req.op <- op;
              req.phys <- get_u64 b p;
              req.bytes <- get_u32 b (p + 8);
              consumed
            end
        | 2 ->
            if plen <> 8 then error_code Bad_length
            else begin
              req.op <- op;
              req.iova <- get_u64 b p;
              consumed
            end
        | 3 ->
            if plen < 2 then error_code Bad_length
            else begin
              let nseg = get_u16 b p in
              if nseg < 1 || nseg > lim then error_code Bad_segs
              else if plen <> 2 + (12 * nseg) then error_code Bad_length
              else begin
                req.op <- op;
                req.nseg <- nseg;
                for i = 0 to nseg - 1 do
                  let sp = p + 2 + (12 * i) in
                  req.seg_phys.(i) <- get_u64 b sp;
                  req.seg_bytes.(i) <- get_u32 b (sp + 8)
                done;
                consumed
              end
            end
        | 4 ->
            if plen <> 9 then error_code Bad_length
            else begin
              req.op <- op;
              req.iova <- get_u64 b p;
              req.write <- get_u8 b (p + 8) <> 0;
              consumed
            end
        | 5 ->
            if plen <> 0 then error_code Bad_length
            else begin
              req.op <- op;
              consumed
            end
        | _ -> error_code Bad_op
      end
    end
  end

(* Request encoders (client side). Each returns the position just past
   the frame it wrote; callers guarantee capacity via
   {!max_request_bytes}. *)

let put_req_header b ~pos ~op ~tenant ~req_id ~plen =
  set_u32 b pos (header_bytes + plen);
  set_u8 b (pos + 4) magic;
  set_u8 b (pos + 5) op;
  set_u16 b (pos + 6) tenant;
  set_u32 b (pos + 8) req_id;
  pos + len_bytes + header_bytes

let encode_map b ~pos ~tenant ~req_id ~phys ~bytes =
  let p = put_req_header b ~pos ~op:op_map ~tenant ~req_id ~plen:12 in
  set_u64 b p phys;
  set_u32 b (p + 8) bytes;
  p + 12

let encode_unmap b ~pos ~tenant ~req_id ~iova =
  let p = put_req_header b ~pos ~op:op_unmap ~tenant ~req_id ~plen:8 in
  set_u64 b p iova;
  p + 8

let encode_map_sg b ~pos ~tenant ~req_id ~seg_phys ~seg_bytes ~n =
  if n < 1 || n > Array.length seg_phys then invalid_arg "Wire.encode_map_sg";
  let p =
    put_req_header b ~pos ~op:op_map_sg ~tenant ~req_id ~plen:(2 + (12 * n))
  in
  set_u16 b p n;
  for i = 0 to n - 1 do
    let sp = p + 2 + (12 * i) in
    set_u64 b sp seg_phys.(i);
    set_u32 b (sp + 8) seg_bytes.(i)
  done;
  p + 2 + (12 * n)

let encode_translate b ~pos ~tenant ~req_id ~iova ~write =
  let p = put_req_header b ~pos ~op:op_translate ~tenant ~req_id ~plen:9 in
  set_u64 b p iova;
  set_u8 b (p + 8) (if write then 1 else 0);
  p + 9

let encode_stats b ~pos ~tenant ~req_id =
  put_req_header b ~pos ~op:op_stats ~tenant ~req_id ~plen:0

(* Hello: 16 bytes, sent once per connection before any frame. *)

let encode_hello b ~pos ~bdf ~flags =
  Bytes.blit_string hello_magic 0 b pos 8;
  set_u32 b (pos + 8) bdf;
  set_u32 b (pos + 12) flags;
  pos + hello_bytes

let decode_hello b ~pos ~avail =
  if avail < hello_bytes then 0
  else begin
    let ok = ref true in
    for i = 0 to 7 do
      if get_u8 b (pos + i) <> Char.code hello_magic.[i] then ok := false
    done;
    if !ok then hello_bytes else error_code Bad_hello
  end

let hello_bdf b ~pos = get_u32 b (pos + 8)

(* Responses. Header after the length word: magic, op echo, status,
   reserved, req_id — 8 bytes, then the op's payload (empty on any
   non-ok status). *)

let put_rsp_header b ~pos ~op ~status ~req_id ~plen =
  set_u32 b pos (header_bytes + plen);
  set_u8 b (pos + 4) magic;
  set_u8 b (pos + 5) op;
  set_u8 b (pos + 6) status;
  set_u8 b (pos + 7) 0;
  set_u32 b (pos + 8) req_id;
  pos + len_bytes + header_bytes

let encode_map_ok b ~pos ~req_id ~iova =
  let p = put_rsp_header b ~pos ~op:op_map ~status:st_ok ~req_id ~plen:8 in
  set_u64 b p iova;
  p + 8

let encode_unmap_ok b ~pos ~req_id =
  put_rsp_header b ~pos ~op:op_unmap ~status:st_ok ~req_id ~plen:0

let encode_translate_ok b ~pos ~req_id ~phys =
  let p = put_rsp_header b ~pos ~op:op_translate ~status:st_ok ~req_id ~plen:8 in
  set_u64 b p phys;
  p + 8

let encode_map_sg_ok b ~pos ~req_id ~iovas ~n =
  let p =
    put_rsp_header b ~pos ~op:op_map_sg ~status:st_ok ~req_id
      ~plen:(2 + (8 * n))
  in
  set_u16 b p n;
  for i = 0 to n - 1 do
    set_u64 b (p + 2 + (8 * i)) iovas.(i)
  done;
  p + 2 + (8 * n)

let encode_stats_ok b ~pos ~req_id ~ops ~requests ~conns ~errors ~faults =
  let p =
    put_rsp_header b ~pos ~op:op_stats ~status:st_ok ~req_id
      ~plen:stats_payload_bytes
  in
  set_u64 b p ops;
  set_u64 b (p + 8) requests;
  set_u64 b (p + 16) conns;
  set_u64 b (p + 24) errors;
  set_u64 b (p + 32) faults;
  p + stats_payload_bytes

let encode_error b ~pos ~op ~status ~req_id =
  put_rsp_header b ~pos ~op ~status ~req_id ~plen:0

(* Client-side response record + decoder, mirroring [req]. *)

type resp = {
  mutable r_op : int;
  mutable status : int;
  mutable r_req_id : int;
  mutable r_iova : int;  (** map ok *)
  mutable r_phys : int;  (** translate ok *)
  mutable r_nseg : int;  (** map_sg ok *)
  r_iovas : int array;
  mutable s_ops : int;  (** stats ok *)
  mutable s_requests : int;
  mutable s_conns : int;
  mutable s_errors : int;
  mutable s_faults : int;
}

let create_resp ~sg_limit =
  if sg_limit < 1 then invalid_arg "Wire.create_resp: sg_limit";
  {
    r_op = 0;
    status = 0;
    r_req_id = 0;
    r_iova = 0;
    r_phys = 0;
    r_nseg = 0;
    r_iovas = Array.make sg_limit 0;
    s_ops = 0;
    s_requests = 0;
    s_conns = 0;
    s_errors = 0;
    s_faults = 0;
  }

let decode_response b ~pos ~avail resp =
  if avail < len_bytes then 0
  else begin
    let len = get_u32 b pos in
    let lim = Array.length resp.r_iovas in
    let maxp =
      let sg = 2 + (8 * lim) in
      if sg > stats_payload_bytes then sg else stats_payload_bytes
    in
    if len < header_bytes then error_code Bad_length
    else if len > header_bytes + maxp then error_code Oversized
    else if avail < len_bytes + len then 0
    else begin
      let h = pos + len_bytes in
      if get_u8 b h <> magic then error_code Bad_magic
      else begin
        let op = get_u8 b (h + 1) in
        let status = get_u8 b (h + 2) in
        let plen = len - header_bytes in
        let p = h + header_bytes in
        let consumed = len_bytes + len in
        resp.r_op <- op;
        resp.status <- status;
        resp.r_req_id <- get_u32 b (h + 4);
        if status <> st_ok then
          if plen <> 0 then error_code Bad_length else consumed
        else
          match op with
          | 1 ->
              if plen <> 8 then error_code Bad_length
              else begin
                resp.r_iova <- get_u64 b p;
                consumed
              end
          | 2 -> if plen <> 0 then error_code Bad_length else consumed
          | 3 ->
              if plen < 2 then error_code Bad_length
              else begin
                let n = get_u16 b p in
                if n < 1 || n > lim then error_code Bad_segs
                else if plen <> 2 + (8 * n) then error_code Bad_length
                else begin
                  resp.r_nseg <- n;
                  for i = 0 to n - 1 do
                    resp.r_iovas.(i) <- get_u64 b (p + 2 + (8 * i))
                  done;
                  consumed
                end
              end
          | 4 ->
              if plen <> 8 then error_code Bad_length
              else begin
                resp.r_phys <- get_u64 b p;
                consumed
              end
          | 5 ->
              if plen <> stats_payload_bytes then error_code Bad_length
              else begin
                resp.s_ops <- get_u64 b p;
                resp.s_requests <- get_u64 b (p + 8);
                resp.s_conns <- get_u64 b (p + 16);
                resp.s_errors <- get_u64 b (p + 24);
                resp.s_faults <- get_u64 b (p + 32);
                consumed
              end
          | _ -> error_code Bad_op
      end
    end
  end
