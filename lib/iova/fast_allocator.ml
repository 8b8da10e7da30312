module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

type t = {
  tree : Rbtree.t;
  magazines : (int, Rbtree.node list ref) Hashtbl.t;
  mutable floor : int;  (* lowest pfn of any carved range; fresh carves go below *)
  mutable live : int;
  mutable parked : int;
  clock : Cycles.t;
  cost : Cost_model.t;
}

let create ~limit_pfn ~clock ~cost =
  if limit_pfn <= 0 then invalid_arg "Fast_allocator.create: limit_pfn";
  {
    tree = Rbtree.create ();
    magazines = Hashtbl.create 8;
    floor = limit_pfn + 1;
    live = 0;
    parked = 0;
    clock;
    cost;
  }

let magazine t size =
  match Hashtbl.find_opt t.magazines size with
  | Some m -> m
  | None ->
      let m = ref [] in
      Hashtbl.add t.magazines size m;
      m

let charge t refs =
  Cycles.charge t.clock
    (t.cost.Cost_model.call_overhead + (refs * t.cost.Cost_model.tree_ref))

(* The first pfn, or -1 on exhaustion. The cold carve allocates
   (hashtable bucket, list cons): acceptable, the zero-alloc map path
   reaches it only on magazine misses. *)
let alloc_pfn t ~size =
  if size <= 0 then invalid_arg "Fast_allocator.alloc_pfn: size";
  let m = magazine t size in
  match !m with
  | node :: rest ->
      m := rest;
      Rbtree.set_cached_free node false;
      t.parked <- t.parked - 1;
      t.live <- t.live + 1;
      charge t 2;
      Rbtree.lo node
  | [] ->
      (* Cold start: carve a fresh range below everything carved so far.
         Tree insertion cost (logarithmic) is charged via visit counting. *)
      let hi = t.floor - 1 in
      let lo = hi - size + 1 in
      if lo < 0 then begin
        charge t 1;
        -1
      end
      else begin
        let v0 = Rbtree.visits t.tree in
        let _node = Rbtree.insert t.tree ~lo ~hi in
        t.floor <- lo;
        t.live <- t.live + 1;
        charge t 2;
        Cycles.charge t.clock
          ((Rbtree.visits t.tree - v0) * t.cost.Cost_model.tree_ref);
        lo
      end

(* Parked ranges ([cached_free]) raise like absent ones: the unmap path
   must not resolve a stale pfn. *)
let find_exn t ~pfn =
  let v0 = Rbtree.visits t.tree in
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  match Rbtree.find_containing_exn t.tree pfn with
  | node ->
      Cycles.charge t.clock
        ((Rbtree.visits t.tree - v0) * t.cost.Cost_model.tree_ref);
      if Rbtree.cached_free node then raise Not_found else node
  | exception Not_found ->
      Cycles.charge t.clock
        ((Rbtree.visits t.tree - v0) * t.cost.Cost_model.tree_ref);
      raise Not_found

let free t node =
  if Rbtree.cached_free node then
    invalid_arg "Fast_allocator.free: range already parked";
  Rbtree.set_cached_free node true;
  let size = Rbtree.hi node - Rbtree.lo node + 1 in
  let m = magazine t size in
  m := node :: !m;
  t.live <- t.live - 1;
  t.parked <- t.parked + 1;
  charge t 1

let live t = t.live
let tree_size t = Rbtree.size t.tree
let parked t = t.parked
