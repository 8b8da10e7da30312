module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

(* Faithful model of the Linux 3.4 IOVA allocator used by the paper's
   testbed (drivers/iommu/iova.c):

   - allocated ranges live in a red-black tree ordered by pfn;
   - allocation walks DOWNWARD from a start point looking for the first
     gap that fits, placing the new range as high as possible;
   - the start point is [cached32_node] (the most recently allocated
     range) when valid, else [rb_last] (the topmost range);
   - [__cached_rbnode_insert_update]: every allocation caches the new node;
   - [__cached_rbnode_delete_update]: freeing a range at or above the
     cached one moves the cache to the freed range's successor - or kills
     it when the freed range was the topmost.

   Ring-buffer drivers free IOVAs in allocation (FIFO) order, i.e. they
   repeatedly free the topmost range, killing the cache. The allocation
   that follows restarts from the top; if it is for a *larger* size than
   the one-range gap just opened (NIC drivers allocate both one-page
   header buffers and multi-page data buffers), it scans across the whole
   packed live population before it finds room - the linear pathology of
   Table 1. *)

type t = {
  tree : Rbtree.t;
  limit_pfn : int;
  mutable cached : Rbtree.node option;
  clock : Cycles.t;
  cost : Cost_model.t;
  mutable last_scan : int;
}

let create ~limit_pfn ~clock ~cost =
  if limit_pfn <= 0 then invalid_arg "Linux_allocator.create: limit_pfn";
  { tree = Rbtree.create (); limit_pfn; cached = None; clock; cost; last_scan = 0 }

let charge_visits t v0 =
  let dv = Rbtree.visits t.tree - v0 in
  Cycles.charge t.clock (dv * t.cost.Cost_model.tree_ref)

(* __get_cached_rbnode *)
let scan_start t =
  match t.cached with
  | Some n -> (Rbtree.prev t.tree n, Rbtree.lo n - 1)
  | None -> (Rbtree.max_node t.tree, t.limit_pfn)

(* The first pfn, or -1 on exhaustion. The downward scan itself
   allocates (options and closures): acceptable here because the
   zero-alloc map path reaches this allocator only on magazine misses. *)
let alloc_pfn t ~size =
  if size <= 0 then invalid_arg "Linux_allocator.alloc_pfn: size";
  let v0 = Rbtree.visits t.tree in
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  t.last_scan <- 0;
  let place ~hi =
    let lo = hi - size + 1 in
    if lo < 0 then -1
    else begin
      let node = Rbtree.insert t.tree ~lo ~hi in
      (* __cached_rbnode_insert_update *)
      t.cached <- Some node;
      charge_visits t v0;
      lo
    end
  in
  (* __alloc_and_insert_iova_range's downward scan. *)
  let rec scan curr limit =
    match curr with
    | None -> place ~hi:limit
    | Some n ->
        t.last_scan <- t.last_scan + 1;
        if limit < Rbtree.lo n then
          (* node entirely above the current limit: move left *)
          scan (Rbtree.prev t.tree n) limit
        else if limit <= Rbtree.hi n then
          (* limit falls inside the node: continue below it *)
          scan (Rbtree.prev t.tree n) (Rbtree.lo n - 1)
        else if Rbtree.hi n + size <= limit then
          (* gap between this node and the limit fits the request *)
          place ~hi:limit
        else scan (Rbtree.prev t.tree n) (Rbtree.lo n - 1)
  in
  let curr, limit = scan_start t in
  let pfn = scan curr limit in
  if pfn < 0 then charge_visits t v0;
  pfn

(* Identical charges whether the pfn resolves or not. *)
let find_exn t ~pfn =
  let v0 = Rbtree.visits t.tree in
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  match Rbtree.find_containing_exn t.tree pfn with
  | node ->
      charge_visits t v0;
      node
  | exception Not_found ->
      charge_visits t v0;
      raise Not_found

(* __free_iova = __cached_rbnode_delete_update + rb_erase *)
let free t node =
  let v0 = Rbtree.visits t.tree in
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  (match t.cached with
  | Some c when Rbtree.lo node >= Rbtree.lo c ->
      t.cached <- Rbtree.next t.tree node
  | Some _ | None -> ());
  Rbtree.delete t.tree node;
  charge_visits t v0

let live t = Rbtree.size t.tree
let last_scan_length t = t.last_scan
