module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

(* Zero-allocation IOTLB: the (bdf, vpn) key is packed into one immediate
   int, the hash table is open-addressing (linear probing, backward-shift
   deletion) over int arrays, and the LRU is intrusive - prev/next are
   int arrays indexed by entry slot, with [-1] as the null link. Steady
   state lookup/insert/invalidate touch no allocator at all.

   Entry storage is struct-of-arrays: [e_key], [e_val], [e_prev],
   [e_next], all of length [capacity]. Free entry slots are chained
   through [e_next]. The probe table [slots] maps hash positions to
   entry indices (-1 = empty) and is sized to keep load factor <= 1/2. *)

let vpn_bits = 36 (* 48-bit IOVA space, 4 KiB pages *)
let vpn_mask = (1 lsl vpn_bits) - 1
let max_bdf = (1 lsl (62 - vpn_bits)) - 1

let pack ~bdf ~vpn =
  if bdf < 0 || bdf > max_bdf then invalid_arg "Iotlb: bdf out of range";
  if vpn < 0 || vpn > vpn_mask then invalid_arg "Iotlb: vpn out of range";
  (bdf lsl vpn_bits) lor vpn

let key_bdf key = key lsr vpn_bits
let key_vpn key = key land vpn_mask

type 'a t = {
  capacity : int;
  mask : int;  (* probe table size - 1 (power of two) *)
  slots : int array;  (* hash position -> entry index, -1 = empty *)
  e_key : int array;
  e_val : 'a array;
  e_prev : int array;  (* toward MRU *)
  e_next : int array;  (* toward LRU; also the free-list link *)
  mutable mru : int;
  mutable lru : int;
  mutable free : int;  (* head of free entry list *)
  mutable len : int;
  clock : Cycles.t;
  cost : Cost_model.t;
  on_evict : (bdf:int -> vpn:int -> unit) option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

(* Entry-value slots are cleared to this immediate on release so popped
   payloads are not pinned. Safe because the arrays are created from the
   same immediate (never a float), so they are uniform boxed arrays. *)
let null_value : 'a. unit -> 'a = fun () -> Obj.magic 0

(* smallest power of two >= 2*capacity, floor 16 *)
let probe_size capacity =
  let rec go s = if s >= 2 * capacity then s else go (2 * s) in
  go 16

let create ?on_evict ~capacity ~clock ~cost () =
  if capacity <= 0 then invalid_arg "Iotlb.create: capacity";
  let psize = probe_size capacity in
  let t =
    {
      capacity;
      mask = psize - 1;
      slots = Array.make psize (-1);
      e_key = Array.make capacity (-1);
      e_val = Array.make capacity (null_value ());
      e_prev = Array.make capacity (-1);
      e_next = Array.make capacity (-1);
      mru = -1;
      lru = -1;
      free = 0;
      len = 0;
      clock;
      cost;
      on_evict;
      hits = 0;
      misses = 0;
      evictions = 0;
    }
  in
  for i = 0 to capacity - 2 do
    t.e_next.(i) <- i + 1
  done;
  t.e_next.(capacity - 1) <- -1;
  t

(* Fibonacci-style multiplicative hash of the packed key. Only wall-clock
   behaviour depends on this; simulated cycles never do. *)
let hash t key = (key * 0x2545F4914F6CDD1D) land max_int land t.mask

(* Probe position for [key]: either its occupied slot or the empty slot
   where it would be inserted. *)
let find_slot t key =
  let i = ref (hash t key) in
  while
    let e = t.slots.(!i) in
    e >= 0 && t.e_key.(e) <> key
  do
    i := (!i + 1) land t.mask
  done;
  !i

(* Backward-shift deletion keeps probe chains contiguous without
   tombstones: after emptying [pos], any later entry in the cluster whose
   home position lies outside (pos, j] is moved back to fill the hole. *)
let slot_remove t pos =
  let i = ref pos and j = ref pos in
  let continue = ref true in
  while !continue do
    t.slots.(!i) <- -1;
    let stop = ref false in
    while not !stop do
      j := (!j + 1) land t.mask;
      let e = t.slots.(!j) in
      if e < 0 then begin
        stop := true;
        continue := false
      end
      else begin
        let home = hash t t.e_key.(e) in
        let between =
          if !i <= !j then !i < home && home <= !j
          else !i < home || home <= !j
        in
        if not between then stop := true
      end
    done;
    if !continue then begin
      t.slots.(!i) <- t.slots.(!j);
      i := !j
    end
  done

(* {2 Intrusive LRU over e_prev/e_next} *)

let unlink t e =
  let p = t.e_prev.(e) and n = t.e_next.(e) in
  if p >= 0 then t.e_next.(p) <- n else t.mru <- n;
  if n >= 0 then t.e_prev.(n) <- p else t.lru <- p;
  t.e_prev.(e) <- -1;
  t.e_next.(e) <- -1

let push_front t e =
  t.e_next.(e) <- t.mru;
  t.e_prev.(e) <- -1;
  if t.mru >= 0 then t.e_prev.(t.mru) <- e else t.lru <- e;
  t.mru <- e

let promote t e =
  if t.mru <> e then begin
    unlink t e;
    push_front t e
  end

(* A miss is an ordinary return of [absent], not an exception: raising
   costs more than the probe itself, and on the translate path three
   lookups in four can miss. *)
let find t ~bdf ~vpn ~absent =
  Cycles.charge t.clock t.cost.Cost_model.iotlb_lookup;
  let e = t.slots.(find_slot t (pack ~bdf ~vpn)) in
  if e >= 0 then begin
    t.hits <- t.hits + 1;
    promote t e;
    t.e_val.(e)
  end
  else begin
    t.misses <- t.misses + 1;
    absent
  end

(* Detach an entry: remove from hash and LRU, return it to the free list,
   and clear its value slot so the payload is released. *)
let detach t e key =
  slot_remove t (find_slot t key);
  unlink t e;
  t.e_key.(e) <- -1;
  t.e_val.(e) <- null_value ();
  t.e_next.(e) <- t.free;
  t.free <- e;
  t.len <- t.len - 1

let insert t ~bdf ~vpn value =
  let key = pack ~bdf ~vpn in
  let pos = find_slot t key in
  let e = t.slots.(pos) in
  if e >= 0 then begin
    t.e_val.(e) <- value;
    promote t e
  end
  else begin
    if t.len >= t.capacity then begin
      let victim = t.lru in
      if victim >= 0 then begin
        let vkey = t.e_key.(victim) in
        detach t victim vkey;
        t.evictions <- t.evictions + 1;
        match t.on_evict with
        | Some hook -> hook ~bdf:(key_bdf vkey) ~vpn:(key_vpn vkey)
        | None -> ()
      end
    end;
    (* re-probe: the eviction may have shifted the cluster *)
    let pos = find_slot t key in
    let e = t.free in
    t.free <- t.e_next.(e);
    t.e_key.(e) <- key;
    t.e_val.(e) <- value;
    t.e_prev.(e) <- -1;
    t.e_next.(e) <- -1;
    t.slots.(pos) <- e;
    t.len <- t.len + 1;
    push_front t e
  end

let invalidate t ~bdf ~vpn =
  Cycles.charge t.clock t.cost.Cost_model.iotlb_invalidate;
  let key = pack ~bdf ~vpn in
  let e = t.slots.(find_slot t key) in
  if e >= 0 then detach t e key

let flush_all t =
  Cycles.charge t.clock t.cost.Cost_model.iotlb_global_flush;
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  Array.fill t.e_key 0 t.capacity (-1);
  Array.fill t.e_val 0 t.capacity (null_value ());
  for i = 0 to t.capacity - 2 do
    t.e_prev.(i) <- -1;
    t.e_next.(i) <- i + 1
  done;
  t.e_prev.(t.capacity - 1) <- -1;
  t.e_next.(t.capacity - 1) <- -1;
  t.free <- 0;
  t.mru <- -1;
  t.lru <- -1;
  t.len <- 0

let drop t ~bdf ~vpn =
  let key = pack ~bdf ~vpn in
  let e = t.slots.(find_slot t key) in
  if e >= 0 then begin
    detach t e key;
    true
  end
  else false

(* [next] is read before [f] runs, so [f] may [drop] the entry it is
   handed. A loop, not a local recursive function: no closure. *)
let iter t f =
  let e = ref t.mru in
  while !e >= 0 do
    let cur = !e in
    e := t.e_next.(cur);
    f ~bdf:(key_bdf t.e_key.(cur)) ~vpn:(key_vpn t.e_key.(cur)) t.e_val.(cur)
  done

let occupancy t = t.len
let capacity t = t.capacity
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0
