type t = {
  buf : int array;
  mask : int;
  width : int;
  head : int Atomic.t; (* consumer cursor: next cell to pop *)
  tail : int Atomic.t; (* producer cursor: next cell to fill *)
}

let create ~cap ~width =
  if cap < 1 then invalid_arg "Spsc.create: cap";
  if width < 1 then invalid_arg "Spsc.create: width";
  let cap2 = ref 1 in
  while !cap2 < cap do
    cap2 := !cap2 * 2
  done;
  {
    buf = Array.make (!cap2 * width) 0;
    mask = !cap2 - 1;
    width;
    head = Atomic.make 0;
    tail = Atomic.make 0;
  }

let capacity t = t.mask + 1

(* Cursors run unbounded and are masked per access; on 63-bit ints
   wraparound is out of reach. Only the producer stores [tail], only
   the consumer stores [head], so each side's read of its own cursor
   is exact and its read of the peer's is conservative (a stale value
   can only under-report available room/cells, never over-report). *)

let try_push t ~src =
  let tail = Atomic.get t.tail in
  let head = Atomic.get t.head in
  if tail - head > t.mask then false
  else begin
    Array.blit src 0 t.buf ((tail land t.mask) * t.width) t.width;
    (* publication: lane writes above happen-before this store *)
    Atomic.set t.tail (tail + 1);
    true
  end

let try_pop t ~dst =
  let head = Atomic.get t.head in
  let tail = Atomic.get t.tail in
  if tail - head <= 0 then false
  else begin
    Array.blit t.buf ((head land t.mask) * t.width) dst 0 t.width;
    Atomic.set t.head (head + 1);
    true
  end

let length t = Atomic.get t.tail - Atomic.get t.head
