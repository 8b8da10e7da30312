(* Charges only: what a non-coherent walker sees is modelled by the
   structures themselves (the twin CPU/walker lanes of [Arena] and
   [Rring]), so this module keeps no per-line state. *)

type t = {
  coherent : bool;
  cost : Rio_sim.Cost_model.t;
  clock : Rio_sim.Cycles.t;
}

let create ~coherent ~cost ~clock = { coherent; cost; clock }
let is_coherent t = t.coherent

let barrier t = Rio_sim.Cycles.charge t.clock t.cost.Rio_sim.Cost_model.barrier

let sync_mem t =
  if not t.coherent then begin
    barrier t;
    Rio_sim.Cycles.charge t.clock t.cost.Rio_sim.Cost_model.cacheline_flush
  end;
  barrier t
