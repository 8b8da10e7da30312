module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

(* Zero-allocation IOTLB: the (bdf, vpn) key is packed into one immediate
   int, the hash index is chained buckets threaded through the entries
   themselves, and the LRU is intrusive - prev/next are int arrays
   indexed by entry slot, with [-1] as the null link. Steady state
   lookup/insert/invalidate touch no allocator at all.

   Entry storage is struct-of-arrays of ints: [e_key], [e_val],
   [e_chain], [e_prev], [e_next], all of length [capacity], so no store
   runs the write barrier. Free entry slots are
   chained through [e_next]. [buckets] maps a hash to the first entry of
   its chain (-1 = empty) and [e_chain] links the rest; with at least
   two buckets per entry a chain is usually one entry long, a lookup
   walks only its own chain, and removing an entry unlinks it from that
   chain without moving any other. *)

let vpn_bits = 36 (* 48-bit IOVA space, 4 KiB pages *)
let vpn_mask = (1 lsl vpn_bits) - 1
let max_bdf = (1 lsl (62 - vpn_bits)) - 1

let[@inline] pack ~bdf ~vpn =
  if bdf < 0 || bdf > max_bdf then invalid_arg "Iotlb: bdf out of range";
  if vpn < 0 || vpn > vpn_mask then invalid_arg "Iotlb: vpn out of range";
  (bdf lsl vpn_bits) lor vpn

let key_bdf key = key lsr vpn_bits
let key_vpn key = key land vpn_mask

type t = {
  capacity : int;
  mask : int;  (* bucket count - 1 (power of two) *)
  buckets : int array;  (* hash -> first entry of its chain, -1 = empty *)
  e_key : int array;
  e_val : int array;  (* payload, e.g. a packed PTE *)
  e_chain : int array;  (* next entry in the same bucket, -1 = end *)
  e_prev : int array;  (* toward MRU *)
  e_next : int array;  (* toward LRU; also the free-list link *)
  mutable mru : int;
  mutable lru : int;
  mutable free : int;  (* head of free entry list *)
  mutable len : int;
  clock : Cycles.t;
  cost : Cost_model.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

(* smallest power of two >= 2*capacity, floor 16 *)
let bucket_count capacity =
  let rec go s = if s >= 2 * capacity then s else go (2 * s) in
  go 16

let create ~capacity ~clock ~cost () =
  if capacity <= 0 then invalid_arg "Iotlb.create: capacity";
  let nbuckets = bucket_count capacity in
  let t =
    {
      capacity;
      mask = nbuckets - 1;
      buckets = Array.make nbuckets (-1);
      e_key = Array.make capacity (-1);
      e_val = Array.make capacity 0;
      e_chain = Array.make capacity (-1);
      e_prev = Array.make capacity (-1);
      e_next = Array.make capacity (-1);
      mru = -1;
      lru = -1;
      free = 0;
      len = 0;
      clock;
      cost;
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

(* Entry holding [key], or -1. *)
let find_entry t key =
  let e = ref t.buckets.(hash t key) in
  while !e >= 0 && t.e_key.(!e) <> key do
    e := t.e_chain.(!e)
  done;
  !e

(* Unlink entry [e], which holds [key], from its bucket's chain. *)
let chain_remove t e key =
  let b = hash t key in
  let p = t.buckets.(b) in
  if p = e then t.buckets.(b) <- t.e_chain.(e)
  else begin
    let p = ref p in
    while t.e_chain.(!p) <> e do
      p := t.e_chain.(!p)
    done;
    t.e_chain.(!p) <- t.e_chain.(e)
  end

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
  let e = find_entry t (pack ~bdf ~vpn) in
  if e >= 0 then begin
    t.hits <- t.hits + 1;
    promote t e;
    t.e_val.(e)
  end
  else begin
    t.misses <- t.misses + 1;
    absent
  end

(* Detach an entry: remove from its chain and the LRU and return it to
   the free list. *)
let detach t e key =
  chain_remove t e key;
  unlink t e;
  t.e_key.(e) <- -1;
  t.e_next.(e) <- t.free;
  t.free <- e;
  t.len <- t.len - 1

let insert t ~bdf ~vpn value =
  let key = pack ~bdf ~vpn in
  let e = find_entry t key in
  if e >= 0 then begin
    t.e_val.(e) <- value;
    promote t e;
    -1
  end
  else begin
    let victim_bdf =
      if t.len >= t.capacity && t.lru >= 0 then begin
        let victim = t.lru in
        let vkey = t.e_key.(victim) in
        detach t victim vkey;
        t.evictions <- t.evictions + 1;
        key_bdf vkey
      end
      else -1
    in
    let e = t.free in
    t.free <- t.e_next.(e);
    t.e_key.(e) <- key;
    t.e_val.(e) <- value;
    let b = hash t key in
    t.e_chain.(e) <- t.buckets.(b);
    t.buckets.(b) <- e;
    t.len <- t.len + 1;
    push_front t e;
    victim_bdf
  end

let invalidate t ~bdf ~vpn =
  Cycles.charge t.clock t.cost.Cost_model.iotlb_invalidate;
  let key = pack ~bdf ~vpn in
  let e = find_entry t key in
  if e >= 0 then detach t e key

let flush_all t =
  Cycles.charge t.clock t.cost.Cost_model.iotlb_global_flush;
  Array.fill t.buckets 0 (Array.length t.buckets) (-1);
  Array.fill t.e_key 0 t.capacity (-1);
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
  let e = find_entry t key in
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
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
