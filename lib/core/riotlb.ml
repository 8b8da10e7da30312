module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

type entry = { mutable rentry : int; mutable rpte : Rpte.t; mutable next : Rpte.t option }

type t = {
  table : (int * int, entry) Hashtbl.t;
  clock : Cycles.t;
  cost : Cost_model.t;
  mutable hits : int;
  mutable misses : int;
}

let create ~clock ~cost = { table = Hashtbl.create 16; clock; cost; hits = 0; misses = 0 }

let find t ~bdf ~rid =
  Cycles.charge t.clock t.cost.Cost_model.iotlb_lookup;
  match Hashtbl.find_opt t.table (bdf, rid) with
  | Some e ->
      t.hits <- t.hits + 1;
      Some e
  | None ->
      t.misses <- t.misses + 1;
      None

let insert t ~bdf ~rid entry = Hashtbl.replace t.table (bdf, rid) entry

let invalidate t ~bdf ~rid =
  Cycles.charge t.clock t.cost.Cost_model.iotlb_invalidate;
  Hashtbl.remove t.table (bdf, rid)

let entries t = Hashtbl.length t.table
let hits t = t.hits
let misses t = t.misses
