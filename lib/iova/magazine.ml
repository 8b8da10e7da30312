module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

(* Bonwick-style magazine cache over an IOVA allocator (the shape of the
   Linux iova rcache, drivers/iommu/iova.c): per size class, a [loaded]
   and a [prev] magazine absorb the common alloc/free churn; full
   magazines rotate through a bounded depot; only depot overflow reaches
   the underlying allocator. Ring-buffer drivers free in allocation
   order, which is exactly the churn the cache turns into O(1) pops and
   pushes - short-circuiting the Table 1 linear-scan pathology.

   The depot and the spare-magazine pool are fixed arrays (stack
   discipline, top at [len - 1]) rather than lists, so the whole
   alloc/free cycle — including magazine rotation — allocates nothing.
   Surplus spare magazines beyond the pool's capacity are simply
   dropped; a later shortage re-creates one on the (cold, already
   allocating) depot-put path.

   A size class is built at the first free of its size. Until then its
   slot holds the magazine's one [empty] bucket, whose magazines and
   depot are empty, so [alloc_pfn] misses through it exactly as through
   a built class that holds nothing; nothing ever writes to it. *)

type stats = {
  hits : int;
  misses : int;
  bypasses : int;
  depot_gets : int;
  depot_puts : int;
  flushes : int;
}

type mag = { mutable count : int; nodes : Rbtree.node array }

(* Empty magazine slots hold this immediate; real nodes are always
   heap blocks, so the arrays stay uniform and nothing is pinned. *)
let null_node : unit -> Rbtree.node = fun () -> Obj.magic 0

(* Empty depot/spare slots likewise. *)
let null_mag : unit -> mag = fun () -> Obj.magic 0

type bucket = {
  mutable loaded : mag;
  mutable prev : mag;
  depot : mag array;  (* full magazines; stack of [depot_len] *)
  mutable depot_len : int;
  spares : mag array;  (* empty magazines; stack of [spare_len] *)
  mutable spare_len : int;
}

type t = {
  base : Allocator.t;
  magazine_size : int;
  depot_max : int;
  max_cached_size : int;
  buckets : bucket array;  (* index = size - 1; [empty] until first free *)
  empty : bucket;
  clock : Cycles.t;
  cost : Cost_model.t;
  mutable live : int;
  mutable hits : int;
  mutable misses : int;
  mutable bypasses : int;
  mutable depot_gets : int;
  mutable depot_puts : int;
  mutable flushes : int;
}

let fresh_mag size = { count = 0; nodes = Array.make size (null_node ()) }

(* Cold: the first free of a size builds that class, and only it. *)
let build_class t ~size =
  let b =
    {
      loaded = fresh_mag t.magazine_size;
      prev = fresh_mag t.magazine_size;
      depot = Array.make t.depot_max (null_mag ());
      depot_len = 0;
      spares = Array.make ((2 * t.depot_max) + 2) (null_mag ());
      spare_len = 0;
    }
  in
  t.buckets.(size - 1) <- b;
  b

let create ?(magazine_size = 128) ?(depot_max = 32) ?(max_cached_size = 8)
    ~base ~clock ~cost () =
  if magazine_size <= 0 then invalid_arg "Magazine.create: magazine_size";
  if depot_max < 0 then invalid_arg "Magazine.create: depot_max";
  if max_cached_size <= 0 then invalid_arg "Magazine.create: max_cached_size";
  let none = fresh_mag 0 in
  let empty =
    {
      loaded = none;
      prev = none;
      depot = [||];
      depot_len = 0;
      spares = [||];
      spare_len = 0;
    }
  in
  {
    base;
    magazine_size;
    depot_max;
    max_cached_size;
    buckets = Array.make max_cached_size empty;
    empty;
    clock;
    cost;
    live = 0;
    hits = 0;
    misses = 0;
    bypasses = 0;
    depot_gets = 0;
    depot_puts = 0;
    flushes = 0;
  }

let mag_pop m =
  let i = m.count - 1 in
  let node = m.nodes.(i) in
  m.nodes.(i) <- null_node ();
  m.count <- i;
  node

let mag_push m node =
  m.nodes.(m.count) <- node;
  m.count <- m.count + 1

(* A magazine hit costs a couple of cache-resident references, nothing
   like the tree scan it replaces. *)
let charge_hit t =
  Cycles.charge t.clock
    (t.cost.Cost_model.call_overhead + (2 * t.cost.Cost_model.mem_ref_cached))

let charge_put t =
  Cycles.charge t.clock
    (t.cost.Cost_model.call_overhead + t.cost.Cost_model.mem_ref_cached)

let take_pfn t b =
  let node = mag_pop b.loaded in
  Rbtree.set_cached_free node false;
  t.hits <- t.hits + 1;
  t.live <- t.live + 1;
  charge_hit t;
  Rbtree.lo node

(* First pfn or -1 on exhaustion. Steady-state magazine hits allocate
   nothing. *)
let alloc_pfn t ~size =
  if size <= 0 then invalid_arg "Magazine.alloc_pfn: size";
  if size > t.max_cached_size then begin
    t.bypasses <- t.bypasses + 1;
    let pfn = Allocator.alloc_pfn t.base ~size in
    if pfn >= 0 then t.live <- t.live + 1;
    pfn
  end
  else begin
    let b = t.buckets.(size - 1) in
    if b.loaded.count > 0 then take_pfn t b
    else if b.prev.count > 0 then begin
      let m = b.loaded in
      b.loaded <- b.prev;
      b.prev <- m;
      take_pfn t b
    end
    else if b.depot_len > 0 then begin
      b.depot_len <- b.depot_len - 1;
      let m = b.depot.(b.depot_len) in
      b.depot.(b.depot_len) <- null_mag ();
      t.depot_gets <- t.depot_gets + 1;
      (* park the exhausted loaded magazine as a spare; drop it if the
         spare pool is full (a later shortage re-creates one) *)
      if b.spare_len < Array.length b.spares then begin
        b.spares.(b.spare_len) <- b.loaded;
        b.spare_len <- b.spare_len + 1
      end;
      b.loaded <- m;
      take_pfn t b
    end
    else begin
      (* checked the cache for nothing: one cached reference *)
      t.misses <- t.misses + 1;
      Cycles.charge t.clock t.cost.Cost_model.mem_ref_cached;
      let pfn = Allocator.alloc_pfn t.base ~size in
      if pfn >= 0 then t.live <- t.live + 1;
      pfn
    end
  end

(* Parked ranges are still present in the base allocator's tree (their
   address space stays reserved, as with the Linux rcache), so
   [find_exn] must hide them from the unmap path. *)
let find_exn t ~pfn =
  let node = Allocator.find_exn t.base ~pfn in
  if Rbtree.cached_free node then raise Not_found else node

let flush_mag t m =
  if m.count > 0 then t.flushes <- t.flushes + 1;
  for i = 0 to m.count - 1 do
    let node = m.nodes.(i) in
    m.nodes.(i) <- null_node ();
    Rbtree.set_cached_free node false;
    Allocator.free t.base node
  done;
  m.count <- 0

(* A parked range (in a magazine, or in a constant-time base
   allocator's own free-magazine) and a range spilled back to a Linux
   base (deleted from its tree) are already free: parking either again
   would hand the same range out twice. *)
let free t node =
  if Rbtree.cached_free node || Rbtree.deleted node then
    invalid_arg "Magazine.free: range already free";
  let size = Rbtree.hi node - Rbtree.lo node + 1 in
  t.live <- t.live - 1;
  if size > t.max_cached_size then begin
    t.bypasses <- t.bypasses + 1;
    Allocator.free t.base node
  end
  else begin
    let b = t.buckets.(size - 1) in
    let b = if b == t.empty then build_class t ~size else b in
    if b.loaded.count = t.magazine_size then begin
      if b.prev.count = 0 then begin
        let m = b.loaded in
        b.loaded <- b.prev;
        b.prev <- m
      end
      else if b.depot_len < t.depot_max then begin
        b.depot.(b.depot_len) <- b.loaded;
        b.depot_len <- b.depot_len + 1;
        t.depot_puts <- t.depot_puts + 1;
        if b.spare_len > 0 then begin
          b.spare_len <- b.spare_len - 1;
          b.loaded <- b.spares.(b.spare_len);
          b.spares.(b.spare_len) <- null_mag ()
        end
        else b.loaded <- fresh_mag t.magazine_size
      end
      else
        (* depot full: spill this magazine back to the allocator *)
        flush_mag t b.loaded
    end;
    Rbtree.set_cached_free node true;
    mag_push b.loaded node;
    charge_put t
  end

let live t = t.live

let drain_bucket t b =
  flush_mag t b.loaded;
  flush_mag t b.prev;
  for i = b.depot_len - 1 downto 0 do
    let m = b.depot.(i) in
    b.depot.(i) <- null_mag ();
    flush_mag t m;
    if b.spare_len < Array.length b.spares then begin
      b.spares.(b.spare_len) <- m;
      b.spare_len <- b.spare_len + 1
    end
  done;
  b.depot_len <- 0

(* [flush_mag] writes a magazine's count even when it is empty, so the
   shared [empty] bucket is skipped, not drained. *)
let drain t =
  Array.iter (fun b -> if b != t.empty then drain_bucket t b) t.buckets

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    bypasses = t.bypasses;
    depot_gets = t.depot_gets;
    depot_puts = t.depot_puts;
    flushes = t.flushes;
  }
