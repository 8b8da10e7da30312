(* Binary min-heap of events ordered by (time, seq), over int arrays.

   Heap position i holds an event's time ([times.(i)]), its push order
   ([seqs.(i)], the FIFO tie-break among equal times) and the pool slot
   its payload lives in ([slots.(i)]). A payload is written once into
   its slot at [push] and cleared at [pop_exn]; sifting moves only the
   three int lanes, so it never runs the write barrier ([caml_modify])
   that moving boxed payloads would. Positions [len, capacity) of
   [slots] hold the free pool slots, so [slots] is always a permutation
   of the pool and no separate free list is needed.

   Steady-state [push], [pop_exn] and [next_time] allocate nothing
   (growth lives in [grow]); cleared payload slots release popped
   values to the GC rather than pinning them in the pool's spare
   capacity. *)

type 'a t = {
  mutable times : int array;  (* heap position -> event time *)
  mutable seqs : int array;  (* heap position -> push order *)
  mutable slots : int array;  (* heap position -> payload slot *)
  mutable payloads : 'a array;  (* payload slot -> payload *)
  mutable len : int;
  mutable next_seq : int;
}

(* Empty payload slots hold this immediate. The payload array is created
   from it (never from a user value), so the array is uniform even when
   ['a] is [float] and no payload outlives its pop. *)
let null_payload : 'a. unit -> 'a = fun () -> Obj.magic 0

let create () =
  { times = [||]; seqs = [||]; slots = [||]; payloads = [||]; len = 0; next_seq = 0 }

let is_empty t = t.len = 0
let length t = t.len

(* Entered only when full, so every old slot is occupied and the new
   slots [cap, ncap) are the free ones, at their own positions. *)
let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let times = Array.make ncap 0 in
  let seqs = Array.make ncap 0 in
  let slots = Array.make ncap 0 in
  let payloads = Array.make ncap (null_payload ()) in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.slots 0 slots 0 cap;
  Array.blit t.payloads 0 payloads 0 cap;
  for i = cap to ncap - 1 do
    slots.(i) <- i
  done;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.payloads <- payloads

let[@inline] set t i ~time ~seq ~slot =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot

let[@inline] move t ~src ~dst = set t dst ~time:t.times.(src) ~seq:t.seqs.(src) ~slot:t.slots.(src)

let push t ~time payload =
  if t.len = Array.length t.times then grow t;
  let slot = t.slots.(t.len) in
  t.payloads.(slot) <- payload;
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
  set t !i ~time ~seq ~slot

let pop_exn t =
  if t.len = 0 then raise Not_found;
  let top = t.slots.(0) in
  let payload = t.payloads.(top) in
  t.payloads.(top) <- null_payload ();
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* sift the last event down from the root through a hole *)
    let time = t.times.(n) and seq = t.seqs.(n) and slot = t.slots.(n) in
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
    set t !i ~time ~seq ~slot
  end;
  (* the popped event's slot joins the free ones past the heap *)
  t.slots.(n) <- top;
  payload

let next_time t =
  if t.len = 0 then raise Not_found;
  t.times.(0)
