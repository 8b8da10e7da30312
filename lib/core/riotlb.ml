module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

type entry = {
  mutable rentry : int;
  mutable phys : int;
  mutable word1 : int;
  mutable next_phys : int;
  mutable next_word1 : int;
}

let empty () =
  { rentry = -1; phys = 0; word1 = Rpte.invalid; next_phys = 0; next_word1 = Rpte.invalid }

type t = {
  clock : Cycles.t;
  cost : Cost_model.t;
  mutable entries : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~clock ~cost = { clock; cost; entries = 0; hits = 0; misses = 0 }

let find t e =
  Cycles.charge t.clock t.cost.Cost_model.iotlb_lookup;
  if e.rentry >= 0 then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

let fill t e ~rentry ~phys ~word1 =
  if e.rentry < 0 then t.entries <- t.entries + 1;
  e.rentry <- rentry;
  e.phys <- phys;
  e.word1 <- word1

let drop t e =
  if e.rentry >= 0 then begin
    t.entries <- t.entries - 1;
    e.rentry <- -1;
    e.next_word1 <- Rpte.invalid
  end

let invalidate t e =
  Cycles.charge t.clock t.cost.Cost_model.iotlb_invalidate;
  drop t e

let entries t = t.entries
let hits t = t.hits
let misses t = t.misses
