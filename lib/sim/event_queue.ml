(* Binary min-heap of events ordered by (time, seq), over int arrays.

   Heap position i holds an event's time ([times.(i)]), its push order
   ([seqs.(i)], the FIFO tie-break among equal times) and its int
   payload ([payloads.(i)]). All three lanes are int arrays, so sifting
   never runs the write barrier ([caml_modify]) and the queue holds no
   pointer for the GC to scan.

   Steady-state [push], [pop_exn] and [next_time] allocate nothing
   (growth lives in [grow]). *)

type t = {
  mutable times : int array;  (* heap position -> event time *)
  mutable seqs : int array;  (* heap position -> push order *)
  mutable payloads : int array;  (* heap position -> payload *)
  mutable len : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; payloads = [||]; len = 0; next_seq = 0 }
let is_empty t = t.len = 0
let length t = t.len

let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let extend a =
    let b = Array.make ncap 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times;
  t.seqs <- extend t.seqs;
  t.payloads <- extend t.payloads

let[@inline] set t i ~time ~seq ~payload =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.payloads.(i) <- payload

let[@inline] move t ~src ~dst =
  set t dst ~time:t.times.(src) ~seq:t.seqs.(src) ~payload:t.payloads.(src)

let push t ~time payload =
  if t.len = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift up through a hole. [seq] is newer than every queued event, so
     the event passes a parent only on a strictly later time. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  while !i > 0 && t.times.((!i - 1) / 2) > time do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  set t !i ~time ~seq ~payload

let pop_exn t =
  if t.len = 0 then raise Not_found;
  let top = t.payloads.(0) in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* sift the last event down from the root through a hole *)
    let time = t.times.(n) and seq = t.seqs.(n) and payload = t.payloads.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let c =
        if l + 1 < n
           && (t.times.(l + 1) < t.times.(l)
              || (t.times.(l + 1) = t.times.(l) && t.seqs.(l + 1) < t.seqs.(l)))
        then l + 1
        else l
      in
      if c < n && (t.times.(c) < time || (t.times.(c) = time && t.seqs.(c) < seq))
      then begin
        move t ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    done;
    set t !i ~time ~seq ~payload
  end;
  top

let next_time t =
  if t.len = 0 then raise Not_found;
  t.times.(0)
