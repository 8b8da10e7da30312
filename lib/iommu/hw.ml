module Addr = Rio_memory.Addr
module Pte = Rio_pagetable.Pte
module Arena = Rio_pagetable.Arena
module Iotlb = Rio_iotlb.Iotlb

type fault = No_translation | Not_permitted | Unknown_device

let pp_fault fmt = function
  | No_translation -> Format.pp_print_string fmt "no translation"
  | Not_permitted -> Format.pp_print_string fmt "direction not permitted"
  | Unknown_device -> Format.pp_print_string fmt "unknown device"

(* IOTLB payloads are packed PTE immediates (Pte.pack): the hit path
   stays free of boxed payloads end to end. *)
type t = {
  context : Context.t;
  iotlb : int Iotlb.t;
  clock : Rio_sim.Cycles.t;
  cost : Rio_sim.Cost_model.t;
  mutable faults : int;
}

let create ~context ~iotlb ~clock ~cost =
  ignore clock;
  ignore cost;
  { context; iotlb; clock; cost; faults = 0 }

let fault t f =
  t.faults <- t.faults + 1;
  Error f

let permit t pte ~iova ~write =
  if not (Pte.packed_permits pte ~write) then fault t Not_permitted
  else Ok (Addr.add (Pte.packed_frame pte) (iova land (Addr.page_size - 1)))

let translate t ~rid ~iova ~write =
  match Context.lookup t.context ~rid with
  | None -> fault t Unknown_device
  | Some domain -> (
      let vpn = iova lsr Addr.page_shift in
      (* allocation-free hit path: no option boxing on the IOTLB hit *)
      let pte = Iotlb.find t.iotlb ~bdf:rid ~vpn ~absent:Pte.packed_none in
      if pte >= 0 then permit t pte ~iova ~write
      else
        let pte = Arena.walk domain.Context.Domain.table ~iova in
        if pte >= 0 then begin
          ignore (Iotlb.insert t.iotlb ~bdf:rid ~vpn pte : int);
          permit t pte ~iova ~write
        end
        else fault t No_translation)

exception Translation_fault

(* Allocation-free twin of [translate] for steady-state probes: no
   fault/result boxes on the hit path, one constant exception for every
   fault class. Fault accounting is identical to [translate] — the
   counter is bumped before the exception escapes. *)
let fault_exn t =
  t.faults <- t.faults + 1;
  raise Translation_fault

let translate_exn t ~rid ~iova ~write =
  let domain =
    try Context.lookup_exn t.context ~rid with Not_found -> fault_exn t
  in
  let vpn = iova lsr Addr.page_shift in
  let pte = Iotlb.find t.iotlb ~bdf:rid ~vpn ~absent:Pte.packed_none in
  let pte =
    if pte >= 0 then pte
    else begin
      let pte = Arena.walk domain.Context.Domain.table ~iova in
      if pte < 0 then fault_exn t;
      ignore (Iotlb.insert t.iotlb ~bdf:rid ~vpn pte : int);
      pte
    end
  in
  if not (Pte.packed_permits pte ~write) then fault_exn t;
  Addr.add (Pte.packed_frame pte) (iova land (Addr.page_size - 1))

let faults t = t.faults
let iotlb t = t.iotlb
