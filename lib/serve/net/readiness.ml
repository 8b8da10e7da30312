(* poll(2) readiness over the rio_poll stubs.

   Layout mirrors the classic epoll-set idiom: a DENSE pollfd array
   (inside Poll_raw.t, C-side) that poll(2) scans contiguously, plus
   SPARSE handle-indexed arrays so registrations keep a stable handle
   while dense slots swap-compact on unregister. register/unregister
   run on accept/close only and may allocate (array growth); wait and
   iter_ready are the per-wakeup path and are allocation-free. *)

module Poll_raw = Rio_poll.Poll_raw

let poll_available = true
let ev_read = Poll_raw.ev_in
let ev_write = Poll_raw.ev_out
let ev_err = Poll_raw.ev_err

type t = {
  ps : Poll_raw.t;
  mutable n : int; (* live dense slots; ps slots >= n are stale *)
  mutable d_handle : int array; (* dense idx -> handle *)
  mutable h_dense : int array; (* handle -> dense idx, -1 when free *)
  mutable h_fd : Unix.file_descr array;
  mutable h_token : int array;
  mutable h_events : int array;
  mutable free : int array; (* stack of recycled handles *)
  mutable free_top : int;
  mutable h_cap : int;
}

let initial_cap = 16

let create () =
  {
    ps = Poll_raw.create ~cap:initial_cap;
    n = 0;
    d_handle = Array.make initial_cap (-1);
    h_dense = Array.make initial_cap (-1);
    h_fd = Array.make initial_cap Unix.stdin;
    h_token = Array.make initial_cap (-1);
    h_events = Array.make initial_cap 0;
    free = Array.make initial_cap (-1);
    free_top = 0;
    h_cap = initial_cap;
  }

let grow_handles t =
  let cap = t.h_cap * 2 in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.h_cap;
    b
  in
  t.d_handle <- extend t.d_handle (-1);
  t.h_dense <- extend t.h_dense (-1);
  t.h_fd <- extend t.h_fd Unix.stdin;
  t.h_token <- extend t.h_token (-1);
  t.h_events <- extend t.h_events 0;
  t.free <- extend t.free (-1);
  t.h_cap <- cap

let register t fd ~token =
  let handle =
    if t.free_top > 0 then (
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top))
    else (
      (* fresh handles are minted in step with dense slots, so [n] is
         also the next unminted handle id *)
      if t.n >= t.h_cap then grow_handles t;
      t.n)
  in
  let slot = t.n in
  if slot >= Poll_raw.capacity t.ps then
    Poll_raw.grow t.ps ~cap:(slot + 1);
  if slot >= Array.length t.d_handle then grow_handles t;
  Poll_raw.set t.ps ~idx:slot ~fd ~events:0;
  t.d_handle.(slot) <- handle;
  t.h_dense.(handle) <- slot;
  t.h_fd.(handle) <- fd;
  t.h_token.(handle) <- token;
  t.h_events.(handle) <- 0;
  t.n <- slot + 1;
  handle

let unregister t ~handle =
  let slot = t.h_dense.(handle) in
  if slot < 0 then invalid_arg "Readiness.unregister: dead handle";
  let last = t.n - 1 in
  if slot <> last then (
    let moved = t.d_handle.(last) in
    t.d_handle.(slot) <- moved;
    t.h_dense.(moved) <- slot;
    Poll_raw.set t.ps ~idx:slot ~fd:t.h_fd.(moved)
      ~events:t.h_events.(moved));
  t.n <- last;
  t.h_dense.(handle) <- -1;
  t.free.(t.free_top) <- handle;
  t.free_top <- t.free_top + 1

let interest t ~handle ~read ~write =
  let ev = (if read then ev_read else 0) lor if write then ev_write else 0 in
  if ev <> t.h_events.(handle) then (
    t.h_events.(handle) <- ev;
    Poll_raw.set t.ps ~idx:t.h_dense.(handle) ~fd:t.h_fd.(handle)
      ~events:ev)

let registered t = t.n
let wait t ~timeout_ms = Poll_raw.wait t.ps ~n:t.n ~timeout_ms

let iter_ready t f =
  for i = 0 to t.n - 1 do
    let r = Poll_raw.revents t.ps ~idx:i in
    if r <> 0 then f t.h_token.(t.d_handle.(i)) r
  done
