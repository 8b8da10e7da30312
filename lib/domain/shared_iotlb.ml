module Iotlb = Rio_iotlb.Iotlb
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

type policy =
  | Shared
  | Partitioned
  | Quota of { entries : int }

let policy_name = function
  | Shared -> "shared"
  | Partitioned -> "partitioned"
  | Quota { entries } -> Printf.sprintf "quota:%d" entries

let policy_of_name s =
  match s with
  | "shared" -> Some Shared
  | "partitioned" -> Some Partitioned
  | _ ->
      if String.length s > 6 && String.sub s 0 6 = "quota:" then
        match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
        | Some n when n > 0 -> Some (Quota { entries = n })
        | _ -> None
      else None

type stats = {
  hits : int;
  misses : int;
  evictions_self : int;
  evictions_by_other : int;
  invalidations : int;
  domain_flushes : int;
}

type counters = {
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_ev_self : int;
  mutable c_ev_other : int;
  mutable c_invalidations : int;
  mutable c_flushes : int;
}

let fresh_counters () =
  {
    c_hits = 0;
    c_misses = 0;
    c_ev_self = 0;
    c_ev_other = 0;
    c_invalidations = 0;
    c_flushes = 0;
  }

type dom = {
  id : int;  (* -1 for the [absent] sentinel *)
  counters : counters;
  (* The IOTLB this domain's traffic goes to: the shared LRU under
     Shared, its own partition under Partitioned/Quota once [freeze]
     has built it (the placeholder [shared] until then). *)
  mutable tlb : Iotlb.t;
}

(* Every table here is sized to the registered set: domain ids are
   dense (Manager mints them from 1), and the owner table is a
   Rid_table over the attached bdfs, never over the 16-bit rid space.
   The translate path (find, insert and the victim's attribution) does
   one array load for the domain and one probe for a victim's owner,
   and allocates nothing. *)
type t = {
  policy : policy;
  total_capacity : int;
  clock : Cycles.t;
  cost : Cost_model.t;
  (* registration order matters for partition sizing *)
  mutable doms : dom list;  (* reversed registration order *)
  absent : dom;  (* fills [by_id] where no domain is registered *)
  mutable by_id : dom array;  (* domain id -> dom *)
  owners : dom Rio_iommu.Rid_table.t;  (* bdf -> owning dom *)
  mutable frozen : bool;
  (* Shared policy: the one LRU everyone contends on. Under
     Partitioned/Quota a one-entry placeholder that no traffic reaches.
     [flushing] is the id whose entries [sweep] drops during a
     domain-selective flush; the closure is built once, at create. *)
  shared : Iotlb.t;
  mutable flushing : int;
  mutable sweep : bdf:int -> vpn:int -> int -> unit;
}

let no_sweep ~bdf:_ ~vpn:_ _ = ()

(* The id of [bdf]'s owner, -1 if none. *)
let owner_id t bdf =
  match Rio_iommu.Rid_table.find_exn t.owners bdf with
  | o -> o.id
  | exception Not_found -> -1

let create ~policy ~capacity ~clock ~cost =
  if capacity <= 0 then invalid_arg "Shared_iotlb.create: capacity";
  let shared =
    let capacity = match policy with Shared -> capacity | _ -> 1 in
    Iotlb.create ~capacity ~clock ~cost ()
  in
  let absent = { id = -1; counters = fresh_counters (); tlb = shared } in
  let t =
    {
      policy;
      total_capacity = capacity;
      clock;
      cost;
      doms = [];
      absent;
      by_id = Array.make 8 absent;
      owners = Rio_iommu.Rid_table.create ();
      frozen = false;
      shared;
      flushing = -1;
      sweep = no_sweep;
    }
  in
  (* Iotlb.iter reads the next link before calling this, so the current
     entry can be dropped in place. *)
  t.sweep <-
    (fun ~bdf ~vpn _ ->
      if owner_id t bdf = t.flushing then
        ignore (Iotlb.drop shared ~bdf ~vpn : bool));
  t

let make_partition t ~capacity =
  Iotlb.create ~capacity ~clock:t.clock ~cost:t.cost ()

let register t ~domain ~bdf =
  (* Online attach: under [Shared] (one LRU, no per-domain geometry)
     and [Quota] (fixed per-domain slice) a registration after traffic
     has started is safe, which is what lets a serve tenant attach
     while its neighbors keep translating. Only [Partitioned] must
     refuse: its slice size is total/N over the final domain count. *)
  (if t.frozen then
     match t.policy with
     | Shared | Quota _ -> ()
     | Partitioned ->
         invalid_arg
           "Shared_iotlb.register: traffic already started (partitioned \
            slice geometry is fixed at first traffic)");
  if domain < 0 then invalid_arg "Shared_iotlb.register: domain";
  (let o = owner_id t bdf in
   if o >= 0 && o <> domain then
     invalid_arg "Shared_iotlb.register: bdf owned by another domain");
  if domain >= Array.length t.by_id then begin
    let grown =
      Array.make (max (domain + 1) (2 * Array.length t.by_id)) t.absent
    in
    Array.blit t.by_id 0 grown 0 (Array.length t.by_id);
    t.by_id <- grown
  end;
  let d =
    let d = t.by_id.(domain) in
    if d.id >= 0 then d
    else begin
      let d = { id = domain; counters = fresh_counters (); tlb = t.shared } in
      t.by_id.(domain) <- d;
      t.doms <- d :: t.doms;
      d
    end
  in
  (* a late Quota registrant builds its fixed slice immediately *)
  (match (t.frozen, t.policy) with
  | true, Quota { entries } when d.tlb == t.shared ->
      d.tlb <- make_partition t ~capacity:entries
  | _ -> ());
  Rio_iommu.Rid_table.replace t.owners bdf d

let unregister t ~domain ~bdf =
  if owner_id t bdf = domain then Rio_iommu.Rid_table.remove t.owners bdf

let dom_exn t domain =
  if domain < 0 || domain >= Array.length t.by_id then
    invalid_arg "Shared_iotlb: unregistered domain";
  let d = t.by_id.(domain) in
  if d.id < 0 then invalid_arg "Shared_iotlb: unregistered domain";
  d

(* Freeze on first traffic: size the per-domain partitions from the
   final registration count. The shared LRU exists from [create]. *)
let freeze t =
  if not t.frozen then begin
    t.frozen <- true;
    match t.policy with
    | Shared -> ()
    | Partitioned | Quota _ ->
        let n = max 1 (List.length t.doms) in
        let slice =
          match t.policy with
          | Quota { entries } -> entries
          | _ -> max 1 (t.total_capacity / n)
        in
        List.iter (fun d -> d.tlb <- make_partition t ~capacity:slice) t.doms
  end

let find t ~domain ~bdf ~vpn =
  freeze t;
  let d = dom_exn t domain in
  let pte = Iotlb.find d.tlb ~bdf ~vpn ~absent:(-1) in
  if pte >= 0 then d.counters.c_hits <- d.counters.c_hits + 1
  else d.counters.c_misses <- d.counters.c_misses + 1;
  pte

let insert t ~domain ~bdf ~vpn pte =
  freeze t;
  let d = dom_exn t domain in
  let victim = Iotlb.insert d.tlb ~bdf ~vpn pte in
  if victim >= 0 then
    match t.policy with
    | Shared -> (
        (* A victim is charged to its bdf's current owner: as self when
           that is the filling domain, as by_other otherwise. An
           unowned bdf's victim counts for nobody. *)
        match Rio_iommu.Rid_table.find_exn t.owners victim with
        | o ->
            let c = o.counters in
            if o.id = d.id then c.c_ev_self <- c.c_ev_self + 1
            else c.c_ev_other <- c.c_ev_other + 1
        | exception Not_found -> ())
    | Partitioned | Quota _ ->
        d.counters.c_ev_self <- d.counters.c_ev_self + 1

let invalidate t ~domain ~bdf ~vpn =
  freeze t;
  let d = dom_exn t domain in
  d.counters.c_invalidations <- d.counters.c_invalidations + 1;
  Iotlb.invalidate d.tlb ~bdf ~vpn

let flush_domain t ~domain =
  freeze t;
  let d = dom_exn t domain in
  d.counters.c_flushes <- d.counters.c_flushes + 1;
  match t.policy with
  | Shared ->
      (* Domain-selective invalidation: one command, drops only this
         domain's entries. *)
      Cycles.charge t.clock t.cost.Cost_model.iotlb_global_flush;
      t.flushing <- d.id;
      Iotlb.iter t.shared t.sweep;
      t.flushing <- -1
  | Partitioned | Quota _ -> Iotlb.flush_all d.tlb

let flush_all t =
  freeze t;
  match t.policy with
  | Shared -> Iotlb.flush_all t.shared
  | Partitioned | Quota _ -> List.iter (fun d -> Iotlb.flush_all d.tlb) t.doms

let stats t ~domain =
  let c = (dom_exn t domain).counters in
  {
    hits = c.c_hits;
    misses = c.c_misses;
    evictions_self = c.c_ev_self;
    evictions_by_other = c.c_ev_other;
    invalidations = c.c_invalidations;
    domain_flushes = c.c_flushes;
  }

let occupancy t ~domain =
  let d = dom_exn t domain in
  if not t.frozen then 0
  else
    match t.policy with
    | Shared ->
        let n = ref 0 in
        Iotlb.iter t.shared (fun ~bdf ~vpn:_ _ ->
            if owner_id t bdf = d.id then incr n);
        !n
    | Partitioned | Quota _ -> Iotlb.occupancy d.tlb
