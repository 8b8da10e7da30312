(* Per-connection buffering and backpressure, deliberately free of any
   Unix dependency: the event loop feeds raw bytes in and drains raw
   bytes out, so partial-read reassembly and the in-flight window are
   unit-testable without sockets.

   Read side: [rbuf] holds [rpos, rlen); {!next} peels whole frames
   off the front (hello first, then requests) and compaction happens
   lazily when the tail runs out of space. Write side: [wbuf] holds
   [wpos, wlen); responses are encoded in place after {!reserve}.

   Backpressure contract: at most [window] requests are in flight
   (decoded but not yet answered); [wbuf] is sized to [window] maximal
   responses, so a reservation can only fail on a protocol breach, and
   {!want_read} drops the connection out of the read set while the
   window is full or the read buffer has no room — the kernel socket
   buffer, and eventually the peer, absorb the stall. *)

type t = {
  rbuf : Bytes.t;
  mutable rpos : int;
  mutable rlen : int;
  wbuf : Bytes.t;
  mutable wpos : int;
  mutable wlen : int;
  window : int;
  rsp_max : int;  (* Wire.max_response_bytes for this conn's sg_limit *)
  mutable inflight : int;
  mutable hello_done : bool;
  mutable bdf : int;
  mutable alive : bool;
  mutable token : int;  (* loop slot; rides along in ring cells *)
}

let create ?rbuf_bytes ?wbuf_bytes ~window ~sg_limit () =
  if window < 1 then invalid_arg "Conn.create: window";
  if sg_limit < 1 then invalid_arg "Conn.create: sg_limit";
  let rdefault =
    let m = 4 * Wire.max_request_bytes ~sg_limit in
    if m > 8192 then m else 8192
  in
  let rsize = match rbuf_bytes with Some n -> n | None -> rdefault in
  let rsp_max = Wire.max_response_bytes ~sg_limit in
  let wmin = window * rsp_max in
  let wsize =
    match wbuf_bytes with
    | Some n ->
        if n < wmin then invalid_arg "Conn.create: wbuf_bytes below window";
        n
    | None -> 2 * wmin
  in
  if rsize < Wire.max_request_bytes ~sg_limit then
    invalid_arg "Conn.create: rbuf_bytes below one max frame";
  {
    rbuf = Bytes.create rsize;
    rpos = 0;
    rlen = 0;
    wbuf = Bytes.create wsize;
    wpos = 0;
    wlen = 0;
    window;
    rsp_max;
    inflight = 0;
    hello_done = false;
    bdf = 0;
    alive = true;
    token = -1;
  }

let inflight t = t.inflight
let bdf t = t.bdf
let alive t = t.alive
let kill t = t.alive <- false
let token t = t.token
let set_token t v = t.token <- v

(* Read side *)

let rbuf t = t.rbuf

let read_capacity t =
  if t.rpos > 0 then begin
    (* Slide the unconsumed tail down to the front; at most one
       partial frame, so the blit is small. *)
    Bytes.blit t.rbuf t.rpos t.rbuf 0 (t.rlen - t.rpos);
    t.rlen <- t.rlen - t.rpos;
    t.rpos <- 0
  end;
  Bytes.length t.rbuf - t.rlen

let read_offset t = t.rlen
let fed t n = t.rlen <- t.rlen + n

let feed t src ~pos ~len =
  let cap = read_capacity t in
  if len > cap then invalid_arg "Conn.feed: overflow";
  Bytes.blit src pos t.rbuf t.rlen len;
  t.rlen <- t.rlen + len

let next t req =
  if not t.alive then 0
  else begin
    let avail = t.rlen - t.rpos in
    if not t.hello_done then begin
      let r = Wire.decode_hello t.rbuf ~pos:t.rpos ~avail in
      if r <= 0 then begin
        if r < 0 then t.alive <- false;
        r
      end
      else begin
        t.bdf <- Wire.hello_bdf t.rbuf ~pos:t.rpos;
        t.hello_done <- true;
        t.rpos <- t.rpos + r;
        (* Fall through: a request may already be buffered. *)
        let avail = t.rlen - t.rpos in
        let r = Wire.decode_request t.rbuf ~pos:t.rpos ~avail req in
        if r > 0 then begin
          t.rpos <- t.rpos + r;
          t.inflight <- t.inflight + 1
        end
        else if r < 0 then t.alive <- false;
        r
      end
    end
    else begin
      let r = Wire.decode_request t.rbuf ~pos:t.rpos ~avail req in
      if r > 0 then begin
        t.rpos <- t.rpos + r;
        t.inflight <- t.inflight + 1
      end
      else if r < 0 then t.alive <- false;
      r
    end
  end

(* Write side *)

let wbuf t = t.wbuf
let wpos t = t.wpos
let queued t = t.wlen - t.wpos

let reserve t n =
  if Bytes.length t.wbuf - t.wlen < n && t.wpos > 0 then begin
    Bytes.blit t.wbuf t.wpos t.wbuf 0 (t.wlen - t.wpos);
    t.wlen <- t.wlen - t.wpos;
    t.wpos <- 0
  end;
  if Bytes.length t.wbuf - t.wlen < n then -1 else t.wlen

let commit t p =
  if p < t.wlen || p > Bytes.length t.wbuf then invalid_arg "Conn.commit";
  t.wlen <- p

let completed t =
  if t.inflight < 1 then invalid_arg "Conn.completed: window empty";
  t.inflight <- t.inflight - 1

let consumed t n =
  if n < 0 || n > queued t then invalid_arg "Conn.consumed";
  t.wpos <- t.wpos + n;
  if t.wpos = t.wlen then begin
    t.wpos <- 0;
    t.wlen <- 0
  end

(* Admission is the whole backpressure story: one more request may be
   decoded only if, after it, every in-flight request still has a
   maximal response reservation available. [reserve] then cannot fail
   (see the invariant in the mli), and a peer that stops draining
   responses stalls its own request stream instead of growing ours. *)
let can_admit t =
  t.alive
  && t.inflight < t.window
  && Bytes.length t.wbuf - queued t >= (t.inflight + 1) * t.rsp_max

let want_read t = can_admit t && read_capacity t > 0
let want_write t = t.alive && queued t > 0
