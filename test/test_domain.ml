(* Tests for the multi-tenant domain subsystem (rio_domain): cross-domain
   isolation, shared-IOTLB partitioning policies and their accounting,
   invalidation scoping, and the discrete-event scheduler's interference
   experiment. *)

module Addr = Rio_memory.Addr
module Frame_allocator = Rio_memory.Frame_allocator
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Bdf = Rio_iommu.Bdf
module Mode = Rio_protect.Mode
module Shared_iotlb = Rio_domain.Shared_iotlb
module Manager = Rio_domain.Manager
module Driver = Rio_domain.Driver
module Scheduler = Rio_experiments.Scheduler

type rig = {
  frames : Frame_allocator.t;
  mgr : Manager.t;
  a : Manager.domain;
  b : Manager.domain;
}

let make_rig ?(iotlb_policy = Shared_iotlb.Shared) ?(iotlb_capacity = 16)
    ?(invalidation = Manager.Per_domain) ?(policy = Driver.Immediate) () =
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:200_000 in
  let mgr =
    Manager.create ~iotlb_policy ~iotlb_capacity ~invalidation ~policy ~frames
      ~clock ~cost ()
  in
  let a =
    Manager.add_domain mgr ~bdf:(Bdf.make ~bus:1 ~device:0 ~func:0) ()
  in
  let b =
    Manager.add_domain mgr ~bdf:(Bdf.make ~bus:2 ~device:0 ~func:0) ()
  in
  { frames; mgr; a; b }

let map_exn r d bytes =
  let buf = Frame_allocator.alloc_exn r.frames in
  Driver.map_exn (Manager.driver d) ~phys:buf ~bytes ~read:true ~write:true

(* One DMA with its fault class as a value. [translate_exn] raises one
   constant for every class: an unknown rid shows in
   [unknown_rid_faults], a tenant's class in its driver's
   [last_fault]; [doms] are the attached tenants. *)
let translate mgr doms ~rid ~iova ~write =
  let unknown = Manager.unknown_rid_faults mgr in
  match Manager.translate_exn mgr ~rid ~iova ~write with
  | p -> Ok p
  | exception Manager.Translation_fault ->
      if Manager.unknown_rid_faults mgr > unknown then Error `Unknown_device
      else
        let d = List.find (fun d -> Manager.rid d = rid) doms in
        Error (`Fault (Driver.last_fault (Manager.driver d)))

(* {1 Isolation} *)

let test_isolation () =
  let r = make_rig () in
  let iova = map_exn r r.a 1500 in
  Alcotest.(check bool) "owner translates" true
    (Result.is_ok
       (translate r.mgr [ r.a; r.b ] ~rid:(Manager.rid r.a) ~iova ~write:true));
  (* domain B's device presenting A's IOVA walks B's (empty) table *)
  Alcotest.(check bool) "other domain faults" true
    (translate r.mgr [ r.a; r.b ] ~rid:(Manager.rid r.b) ~iova ~write:true
    = Error (`Fault Driver.No_translation));
  Alcotest.(check int) "fault recorded against B" 1 (Manager.faults r.mgr r.b);
  Alcotest.(check int) "no fault against A" 0 (Manager.faults r.mgr r.a)

let test_unknown_rid () =
  let r = make_rig () in
  Alcotest.check_raises "unknown rid faults" Manager.Translation_fault (fun () ->
      ignore (Manager.translate_exn r.mgr ~rid:0xBEEF ~iova:0x1000 ~write:true));
  Alcotest.(check int) "counted" 1 (Manager.unknown_rid_faults r.mgr)

let test_private_iova_spaces () =
  (* Both tenants allocate from their own IOVA space: the same IOVA can
     be live in both domains at once, mapping different frames. *)
  let r = make_rig () in
  let iova_a = map_exn r r.a 100 in
  let iova_b = map_exn r r.b 100 in
  Alcotest.(check int) "same iova, both spaces" iova_a iova_b;
  let pa = Manager.translate_exn r.mgr ~rid:(Manager.rid r.a) ~iova:iova_a ~write:true in
  let pb = Manager.translate_exn r.mgr ~rid:(Manager.rid r.b) ~iova:iova_b ~write:true in
  Alcotest.(check bool) "different frames" false (pa = pb)

(* {1 Policies and accounting} *)

let touch r d iova =
  ignore (translate r.mgr [ r.a; r.b ] ~rid:(Manager.rid d) ~iova ~write:true)

let test_shared_cross_eviction_accounted () =
  let r = make_rig ~iotlb_policy:Shared_iotlb.Shared ~iotlb_capacity:8 () in
  (* A warms 4 entries, then B floods 8: A's entries must be evicted by
     B's fills and attributed as such. *)
  let a_iovas = List.init 4 (fun _ -> map_exn r r.a Addr.page_size) in
  List.iter (touch r r.a) a_iovas;
  let b_iovas = List.init 8 (fun _ -> map_exn r r.b Addr.page_size) in
  List.iter (touch r r.b) b_iovas;
  let sa = Manager.iotlb_stats r.mgr r.a in
  Alcotest.(check int) "all of A's entries victimized" 4
    sa.Shared_iotlb.evictions_by_other;
  (* and A now misses on re-touch *)
  let misses_before = (Manager.iotlb_stats r.mgr r.a).Shared_iotlb.misses in
  List.iter (touch r r.a) a_iovas;
  let sa = Manager.iotlb_stats r.mgr r.a in
  Alcotest.(check int) "A misses after the flood" (misses_before + 4)
    sa.Shared_iotlb.misses

let test_partitioned_no_cross_eviction () =
  let r = make_rig ~iotlb_policy:Shared_iotlb.Partitioned ~iotlb_capacity:8 () in
  (* partition size = 8/2 = 4 per domain *)
  let a_iovas = List.init 4 (fun _ -> map_exn r r.a Addr.page_size) in
  List.iter (touch r r.a) a_iovas;
  let b_iovas = List.init 16 (fun _ -> map_exn r r.b Addr.page_size) in
  List.iter (touch r r.b) b_iovas;
  let sa = Manager.iotlb_stats r.mgr r.a in
  Alcotest.(check int) "B cannot evict A" 0 sa.Shared_iotlb.evictions_by_other;
  (* A's working set is intact: re-touching is all hits *)
  let hits_before = sa.Shared_iotlb.hits in
  List.iter (touch r r.a) a_iovas;
  let sa = Manager.iotlb_stats r.mgr r.a in
  Alcotest.(check int) "A still hits" (hits_before + 4) sa.Shared_iotlb.hits;
  (* B thrashed its own partition, attributed to itself *)
  let sb = Manager.iotlb_stats r.mgr r.b in
  Alcotest.(check bool) "B self-evicts" true (sb.Shared_iotlb.evictions_self > 0);
  Alcotest.(check int) "nobody evicted B" 0 sb.Shared_iotlb.evictions_by_other

let test_quota_policy_caps_domain () =
  let r =
    make_rig ~iotlb_policy:(Shared_iotlb.Quota { entries = 2 }) ~iotlb_capacity:8
      ()
  in
  let a_iovas = List.init 4 (fun _ -> map_exn r r.a Addr.page_size) in
  List.iter (touch r r.a) a_iovas;
  Alcotest.(check int) "A capped at its quota" 2
    (Shared_iotlb.occupancy (Manager.iotlb r.mgr) ~domain:(Manager.domain_id r.a))

(* {1 Invalidation scoping} *)

let test_per_domain_invalidation_spares_others () =
  let r = make_rig ~iotlb_policy:Shared_iotlb.Partitioned ~iotlb_capacity:8 () in
  let a_iovas = List.init 2 (fun _ -> map_exn r r.a Addr.page_size) in
  let b_iovas = List.init 2 (fun _ -> map_exn r r.b Addr.page_size) in
  List.iter (touch r r.a) a_iovas;
  List.iter (touch r r.b) b_iovas;
  Shared_iotlb.flush_domain (Manager.iotlb r.mgr) ~domain:(Manager.domain_id r.a);
  (* B's entries survived: re-touch hits *)
  let hits_before = (Manager.iotlb_stats r.mgr r.b).Shared_iotlb.hits in
  List.iter (touch r r.b) b_iovas;
  Alcotest.(check int) "B unaffected by A's flush" (hits_before + 2)
    (Manager.iotlb_stats r.mgr r.b).Shared_iotlb.hits;
  (* A's entries are gone: re-touch misses *)
  let misses_before = (Manager.iotlb_stats r.mgr r.a).Shared_iotlb.misses in
  List.iter (touch r r.a) a_iovas;
  Alcotest.(check int) "A flushed" (misses_before + 2)
    (Manager.iotlb_stats r.mgr r.a).Shared_iotlb.misses

let test_per_domain_invalidation_shared_policy () =
  (* Domain-selective invalidation also works on the fully shared array:
     it drops exactly the flushed domain's entries. *)
  let r = make_rig ~iotlb_policy:Shared_iotlb.Shared ~iotlb_capacity:16 () in
  let a_iovas = List.init 3 (fun _ -> map_exn r r.a Addr.page_size) in
  let b_iovas = List.init 3 (fun _ -> map_exn r r.b Addr.page_size) in
  List.iter (touch r r.a) a_iovas;
  List.iter (touch r r.b) b_iovas;
  Shared_iotlb.flush_domain (Manager.iotlb r.mgr) ~domain:(Manager.domain_id r.a);
  Alcotest.(check int) "A's footprint dropped" 0
    (Shared_iotlb.occupancy (Manager.iotlb r.mgr) ~domain:(Manager.domain_id r.a));
  Alcotest.(check int) "B's footprint intact" 3
    (Shared_iotlb.occupancy (Manager.iotlb r.mgr) ~domain:(Manager.domain_id r.b))

let test_deferred_per_domain_flush_drains_own_queue () =
  let r =
    make_rig ~iotlb_policy:Shared_iotlb.Partitioned
      ~invalidation:Manager.Per_domain
      ~policy:(Driver.Deferred { batch = 4 })
      ()
  in
  let unmap_n d n =
    for _ = 1 to n do
      let iova = map_exn r d Addr.page_size in
      Driver.unmap_exn (Manager.driver d) ~iova
    done
  in
  unmap_n r.a 3;
  unmap_n r.b 2;
  Alcotest.(check int) "A queued" 3 (Driver.pending (Manager.driver r.a));
  Alcotest.(check int) "B queued" 2 (Driver.pending (Manager.driver r.b));
  (* A's 4th unmap reaches the batch: only A's queue drains *)
  unmap_n r.a 1;
  Alcotest.(check int) "A drained" 0 (Driver.pending (Manager.driver r.a));
  Alcotest.(check int) "B untouched" 2 (Driver.pending (Manager.driver r.b))

let test_deferred_global_flush_drains_all_queues () =
  let r =
    make_rig ~iotlb_policy:Shared_iotlb.Shared ~invalidation:Manager.Global
      ~policy:(Driver.Deferred { batch = 4 })
      ()
  in
  let unmap_n d n =
    for _ = 1 to n do
      let iova = map_exn r d Addr.page_size in
      Driver.unmap_exn (Manager.driver d) ~iova
    done
  in
  unmap_n r.b 2;
  unmap_n r.a 4;
  Alcotest.(check int) "A drained" 0 (Driver.pending (Manager.driver r.a));
  Alcotest.(check int) "global flush drained B too" 0 (Driver.pending (Manager.driver r.b))

let test_deferred_window_closes () =
  let r =
    make_rig ~iotlb_policy:Shared_iotlb.Shared ~invalidation:Manager.Per_domain
      ~policy:(Driver.Deferred { batch = 250 })
      ()
  in
  let iova = map_exn r r.a 100 in
  touch r r.a iova;
  Driver.unmap_exn (Manager.driver r.a) ~iova;
  (* stale entry still live: the window *)
  Alcotest.(check bool) "window open" true
    (Result.is_ok
       (translate r.mgr [ r.a; r.b ] ~rid:(Manager.rid r.a) ~iova ~write:true));
  Driver.flush (Manager.driver r.a);
  Alcotest.(check bool) "window closed" true
    (translate r.mgr [ r.a; r.b ] ~rid:(Manager.rid r.a) ~iova ~write:true
    = Error (`Fault Driver.No_translation))

(* {1 Shared-policy attribution against a reference model}

   A QCheck op sequence drives one Shared-policy IOTLB and a list-based
   LRU reference side by side: lookups, fills, single-entry
   invalidations, domain flushes, online registration of fresh
   domains, and bdf release plus re-registration. After every op each
   domain's stats, occupancy and any lookup result must agree. The
   reference encodes the attribution rules directly: a capacity victim
   is charged to its bdf's current owner — as self when that owner is
   the filler, as by_other otherwise — and a victim whose bdf has no
   owner counts for nobody. *)

type sop =
  | S_lookup of int * int * int  (* domain slot, bdf slot, vpn *)
  | S_fill of int * int * int
  | S_invalidate of int * int * int
  | S_flush of int  (* domain slot *)
  | S_register of int  (* a fresh domain claims a bdf slot *)
  | S_unregister of int  (* the bdf slot's owner releases it *)
  | S_reregister of int * int  (* an existing domain claims a bdf slot *)

let sop_to_string = function
  | S_lookup (d, b, v) -> Printf.sprintf "lookup(d%d,b%d,v%d)" d b v
  | S_fill (d, b, v) -> Printf.sprintf "fill(d%d,b%d,v%d)" d b v
  | S_invalidate (d, b, v) -> Printf.sprintf "inval(d%d,b%d,v%d)" d b v
  | S_flush d -> Printf.sprintf "flush(d%d)" d
  | S_register b -> Printf.sprintf "register(b%d)" b
  | S_unregister b -> Printf.sprintf "unregister(b%d)" b
  | S_reregister (d, b) -> Printf.sprintf "reregister(d%d,b%d)" d b

let sop_gen =
  QCheck.Gen.(
    let d = int_bound 7 and b = int_bound 4 and v = int_bound 5 in
    frequency
      [
        (4, map3 (fun d b v -> S_lookup (d, b, v)) d b v);
        (4, map3 (fun d b v -> S_fill (d, b, v)) d b v);
        (1, map3 (fun d b v -> S_invalidate (d, b, v)) d b v);
        (1, map (fun d -> S_flush d) d);
        (1, map (fun b -> S_register b) b);
        (1, map (fun b -> S_unregister b) b);
        (1, map2 (fun d b -> S_reregister (d, b)) d b);
      ])

let sops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map sop_to_string ops))
    QCheck.Gen.(list_size (int_range 1 120) sop_gen)

(* counters: hits, misses, self, other, invalidations, flushes *)
type ref_model = {
  cap : int;
  mutable lru : (int * int * int) list;  (* (bdf, vpn, pte), MRU first *)
  owners : (int, int) Hashtbl.t;  (* bdf -> owning domain *)
  counts : (int, int array) Hashtbl.t;
}

let ref_bump m d i =
  let c = Hashtbl.find m.counts d in
  c.(i) <- c.(i) + 1

let ref_evict m ~filler bdf =
  match Hashtbl.find_opt m.owners bdf with
  | None -> ()
  | Some o -> ref_bump m o (if o = filler then 2 else 3)

let ref_take m bdf vpn =
  let hit = List.find_opt (fun (b, v, _) -> b = bdf && v = vpn) m.lru in
  m.lru <- List.filter (fun (b, v, _) -> not (b = bdf && v = vpn)) m.lru;
  hit

let ref_lookup m d bdf vpn =
  match ref_take m bdf vpn with
  | Some ((_, _, pte) as e) ->
      m.lru <- e :: m.lru;
      ref_bump m d 0;
      Some pte
  | None ->
      ref_bump m d 1;
      None

let ref_fill m d bdf vpn pte =
  (match ref_take m bdf vpn with
  | Some _ -> ()
  | None ->
      if List.length m.lru >= m.cap then begin
        let rev = List.rev m.lru in
        let vb, _, _ = List.hd rev in
        m.lru <- List.rev (List.tl rev);
        ref_evict m ~filler:d vb
      end);
  m.lru <- (bdf, vpn, pte) :: m.lru

let ref_occupancy m d =
  List.length
    (List.filter (fun (b, _, _) -> Hashtbl.find_opt m.owners b = Some d) m.lru)

let bdf_of_slot k = (k + 1) lsl 8 (* bus<<8: sparse rids, as attached PCI devices are *)

let check_attribution ops =
  let cap = 6 in
  let tlb =
    Shared_iotlb.create ~policy:Shared_iotlb.Shared ~capacity:cap
      ~clock:(Cycles.create ()) ~cost:Cost_model.default
  in
  let m =
    { cap; lru = []; owners = Hashtbl.create 8; counts = Hashtbl.create 8 }
  in
  let doms = ref [] (* registration order *) and next_id = ref 1 in
  let fail fmt = Printf.ksprintf failwith fmt in
  (* both sides must agree on whether a registration is refused *)
  let register d bdf =
    let model_ok =
      match Hashtbl.find_opt m.owners bdf with
      | Some o when o <> d -> false
      | _ -> true
    in
    let real_ok =
      match Shared_iotlb.register tlb ~domain:d ~bdf with
      | () -> true
      | exception Invalid_argument _ -> false
    in
    if model_ok <> real_ok then fail "register d%d bdf %#x disagrees" d bdf;
    if model_ok then begin
      if not (Hashtbl.mem m.counts d) then begin
        Hashtbl.replace m.counts d (Array.make 6 0);
        doms := !doms @ [ d ]
      end;
      Hashtbl.replace m.owners bdf d
    end
  in
  for k = 0 to 2 do
    register !next_id (bdf_of_slot k);
    incr next_id
  done;
  let dom_of slot = List.nth !doms (slot mod List.length !doms) in
  let apply = function
    | S_lookup (ds, b, vpn) ->
        let d = dom_of ds and bdf = bdf_of_slot b in
        let real =
          match Shared_iotlb.find tlb ~domain:d ~bdf ~vpn with
          | -1 -> None
          | pte -> Some pte
        in
        if real <> ref_lookup m d bdf vpn then fail "lookup result differs"
    | S_fill (ds, b, vpn) ->
        let d = dom_of ds and bdf = bdf_of_slot b in
        let pte = (vpn * 100) + d in
        Shared_iotlb.insert tlb ~domain:d ~bdf ~vpn pte;
        ref_fill m d bdf vpn pte
    | S_invalidate (ds, b, vpn) ->
        let d = dom_of ds and bdf = bdf_of_slot b in
        Shared_iotlb.invalidate tlb ~domain:d ~bdf ~vpn;
        ref_bump m d 4;
        ignore (ref_take m bdf vpn)
    | S_flush ds ->
        let d = dom_of ds in
        Shared_iotlb.flush_domain tlb ~domain:d;
        ref_bump m d 5;
        m.lru <-
          List.filter
            (fun (b, _, _) -> Hashtbl.find_opt m.owners b <> Some d)
            m.lru
    | S_register b ->
        register !next_id (bdf_of_slot b);
        incr next_id
    | S_unregister b -> (
        let bdf = bdf_of_slot b in
        match Hashtbl.find_opt m.owners bdf with
        | Some o ->
            Shared_iotlb.unregister tlb ~domain:o ~bdf;
            Hashtbl.remove m.owners bdf
        | None -> ())
    | S_reregister (ds, b) -> register (dom_of ds) (bdf_of_slot b)
  in
  List.iter
    (fun op ->
      apply op;
      List.iter
        (fun d ->
          let s = Shared_iotlb.stats tlb ~domain:d in
          let c = Hashtbl.find m.counts d in
          let real =
            [|
              s.Shared_iotlb.hits; s.misses; s.evictions_self;
              s.evictions_by_other; s.invalidations; s.domain_flushes;
            |]
          in
          if real <> c then
            fail "after %s: d%d stats [%s] vs model [%s]" (sop_to_string op) d
              (String.concat ";" (Array.to_list (Array.map string_of_int real)))
              (String.concat ";" (Array.to_list (Array.map string_of_int c)));
          if Shared_iotlb.occupancy tlb ~domain:d <> ref_occupancy m d then
            fail "after %s: d%d occupancy differs" (sop_to_string op) d)
        !doms)
    ops;
  true

let prop_shared_attribution =
  QCheck.Test.make ~count:400 ~name:"shared attribution = LRU reference"
    sops_arb check_attribution

(* {1 translate / translate_exn parity}

   Twin managers replay one op sequence; one answers every DMA through
   [translate], which names the fault class, the other through
   [translate_exn] alone.
   Both must return the same phys (or fault), bump the same
   unknown-rid and per-domain fault counters, keep identical IOTLB
   stats and charge identical cycles. Bdf slots 0-3 attach, detach,
   and re-attach to fresh domains; slot 4 is never attached. *)

type pop =
  | P_attach of int
  | P_detach of int
  | P_map of int * bool  (* bdf slot, writable *)
  | P_translate of int * int * bool  (* bdf slot, iova pick, write *)

let pop_to_string = function
  | P_attach k -> Printf.sprintf "attach(b%d)" k
  | P_detach k -> Printf.sprintf "detach(b%d)" k
  | P_map (k, w) -> Printf.sprintf "map(b%d,%s)" k (if w then "rw" else "ro")
  | P_translate (k, p, w) ->
      Printf.sprintf "translate(b%d,#%d,%s)" k p (if w then "w" else "r")

let pop_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun k -> P_attach k) (int_bound 3));
        (1, map (fun k -> P_detach k) (int_bound 3));
        (3, map2 (fun k w -> P_map (k, w)) (int_bound 3) bool);
        ( 6,
          map3
            (fun k p w -> P_translate (k, p, w))
            (int_bound 4) (int_bound 40) bool );
      ])

let pops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map pop_to_string ops))
    QCheck.Gen.(list_size (int_range 1 80) pop_gen)

type twin = {
  t_mgr : Manager.t;
  t_clock : Cycles.t;
  t_frames : Frame_allocator.t;
  t_slots : Manager.domain option array;
  mutable t_all : Manager.domain list;  (* every domain ever attached *)
}

let make_twin () =
  let clock = Cycles.create () in
  let frames = Frame_allocator.create ~total_frames:20_000 in
  let mgr =
    Manager.create ~iotlb_policy:Shared_iotlb.Shared ~iotlb_capacity:4
      ~invalidation:Manager.Per_domain ~policy:Driver.Immediate ~frames ~clock
      ~cost:Cost_model.default ()
  in
  {
    t_mgr = mgr;
    t_clock = clock;
    t_frames = frames;
    t_slots = Array.make 5 None;
    t_all = [];
  }

let slot_bdf k = Bdf.make ~bus:(k + 1) ~device:0 ~func:0

let check_translate_parity ops =
  let b = make_twin () and e = make_twin () in
  let iovas = ref [||] and classes = ref [] in
  let fail fmt = Printf.ksprintf failwith fmt in
  let apply = function
    | P_attach k ->
        List.iter
          (fun t ->
            if t.t_slots.(k) = None then begin
              let d =
                Manager.add_domain t.t_mgr ~bdf:(slot_bdf k) ()
              in
              t.t_slots.(k) <- Some d;
              t.t_all <- d :: t.t_all
            end)
          [ b; e ]
    | P_detach k ->
        List.iter
          (fun t ->
            match t.t_slots.(k) with
            | Some d ->
                Manager.remove_domain t.t_mgr d;
                t.t_slots.(k) <- None
            | None -> ())
          [ b; e ]
    | P_map (k, write) -> (
        let map t =
          match t.t_slots.(k) with
          | Some d ->
              let phys = Frame_allocator.alloc_exn t.t_frames in
              Some (Driver.map_exn (Manager.driver d) ~phys ~bytes:4096 ~read:true ~write)
          | None -> None
        in
        match (map b, map e) with
        | Some x, Some y when x = y -> iovas := Array.append !iovas [| x |]
        | None, None -> ()
        | _ -> fail "twins mapped differently")
    | P_translate (k, pick, write) ->
        let rid = Bdf.to_rid (slot_bdf k) in
        let n = Array.length !iovas in
        (* picks past the mapped set probe an iova nobody mapped *)
        let iova =
          if pick < n then !iovas.(pick) + (pick * 37 land 0xFFF)
          else 0x7_0000_0000 + (pick lsl 12)
        in
        let unknown_before = Manager.unknown_rid_faults e.t_mgr in
        let dom_faults_before =
          match e.t_slots.(k) with
          | Some d -> Manager.faults e.t_mgr d
          | None -> 0
        in
        let boxed =
          translate b.t_mgr
            (List.filter_map Fun.id (Array.to_list b.t_slots))
            ~rid ~iova ~write
        in
        let unboxed =
          match Manager.translate_exn e.t_mgr ~rid ~iova ~write with
          | p -> Some p
          | exception Manager.Translation_fault -> None
        in
        let unknown_delta = Manager.unknown_rid_faults e.t_mgr - unknown_before in
        let dom_delta =
          match e.t_slots.(k) with
          | Some d -> Manager.faults e.t_mgr d - dom_faults_before
          | None -> 0
        in
        (match (boxed, unboxed) with
        | Ok p, Some q when p = q ->
            if unknown_delta + dom_delta <> 0 then fail "hit bumped a fault"
        | Error `Unknown_device, None ->
            if unknown_delta <> 1 || dom_delta <> 0 then
              fail "unknown rid counted elsewhere"
        | Error (`Fault _), None ->
            if unknown_delta <> 0 || dom_delta <> 1 then
              fail "domain fault counted elsewhere"
        | _ -> fail "translate and translate_exn disagree");
        classes :=
          (match boxed with
          | Ok _ -> "ok"
          | Error `Unknown_device -> "unknown"
          | Error (`Fault Driver.No_translation) -> "no-translation"
          | Error (`Fault Driver.Not_permitted) -> "not-permitted")
          :: !classes
  in
  List.iter
    (fun op ->
      apply op;
      let where = pop_to_string op in
      if Cycles.now b.t_clock <> Cycles.now e.t_clock then
        fail "after %s: cycles differ" where;
      if Manager.unknown_rid_faults b.t_mgr <> Manager.unknown_rid_faults e.t_mgr
      then fail "after %s: unknown-rid counters differ" where;
      List.iter2
        (fun db de ->
          if Manager.faults b.t_mgr db <> Manager.faults e.t_mgr de then
            fail "after %s: fault counters differ" where;
          if Manager.iotlb_stats b.t_mgr db <> Manager.iotlb_stats e.t_mgr de
          then fail "after %s: IOTLB stats differ" where)
        b.t_all e.t_all)
    ops;
  List.sort_uniq compare !classes

let prop_translate_parity =
  QCheck.Test.make ~count:300 ~name:"translate = translate_exn (twin replay)"
    pops_arb (fun ops ->
      ignore (check_translate_parity ops);
      true)

(* The four rid states in a fixed order, so every fault class is
   exercised whatever the generator draws. *)
let test_translate_parity_rid_states () =
  let classes =
    check_translate_parity
      [
        P_attach 0; P_attach 1; P_map (0, false); P_map (1, true);
        P_translate (0, 0, false) (* attached, hit after walk *);
        P_translate (0, 0, false);
        P_translate (0, 0, true) (* read-only page written *);
        P_translate (1, 1, true);
        P_translate (1, 39, false) (* attached, unmapped iova *);
        P_translate (4, 0, false) (* never attached *);
        P_detach 1; P_translate (1, 1, false) (* detached *);
        P_attach 1 (* the bdf re-attached to a fresh domain *);
        P_translate (1, 1, false) (* old iova, new empty table *);
        P_map (1, true); P_translate (1, 2, true);
      ]
  in
  Alcotest.(check (list string))
    "every class seen"
    [ "no-translation"; "not-permitted"; "ok"; "unknown" ]
    classes

(* {1 Front-door differential}

   One tenant under [Manager] (shared IOTLB, per-domain scope) and the
   single-device [Dma_api] in strict+ / defer+ replay the same random
   map/unmap/translate sequence. Both must hand out the same IOVAs,
   resolve every DMA to the same phys or fault, charge the same cycles
   per call, count the same faults and attribute the map/unmap cycles
   to the same Table 1 components. *)

type fop =
  | F_map of int * int * Rio_core.Rpte.dir  (* bytes, page offset, direction *)
  | F_unmap of int
  | F_translate of int * int * bool  (* pick, byte offset, write *)

let dir_name = function
  | Rio_core.Rpte.Bidirectional -> "rw"
  | Rio_core.Rpte.To_memory -> "w"
  | Rio_core.Rpte.From_memory -> "r"

let fop_to_string = function
  | F_map (b, o, dir) -> Printf.sprintf "map(%d@+%d,%s)" b o (dir_name dir)
  | F_unmap k -> Printf.sprintf "unmap(#%d)" k
  | F_translate (p, o, w) ->
      Printf.sprintf "translate(#%d+%d,%s)" p o (if w then "w" else "r")

let fops_arb =
  let fop =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map3
              (fun b o dir -> F_map (b, o, dir))
              (int_range 1 9000) (int_bound 4095)
              (oneofl
                 Rio_core.Rpte.[ Bidirectional; To_memory; From_memory ]) );
          (2, map (fun k -> F_unmap k) (int_bound 1000));
          ( 3,
            map3
              (fun p o w -> F_translate (p, o, w))
              (int_bound 1000) (int_bound 12_000) bool );
        ])
  in
  QCheck.make
    ~print:(fun (rc, ops) ->
      Printf.sprintf "rcache=%b %s" rc
        (String.concat " " (List.map fop_to_string ops)))
    QCheck.Gen.(pair bool (list_size (int_range 1 300) fop))

let check_front_doors mode (rcache, ops) =
  (* a small batch so the sequences reach the deferred flush *)
  let cfg =
    { (Rio_protect.Dma_api.default_config ~mode) with rcache; defer_batch = 8 }
  in
  let api = Rio_protect.Dma_api.create cfg in
  let clock = Cycles.create () in
  let mgr =
    Manager.create ~iotlb_policy:Shared_iotlb.Shared
      ~iotlb_capacity:cfg.iotlb_capacity ~invalidation:Manager.Per_domain
      ~policy:
        (if Mode.is_deferred mode then
           Driver.Deferred { batch = cfg.defer_batch }
         else Driver.Immediate)
      ~frames:(Frame_allocator.create ~total_frames:cfg.total_frames)
      ~clock ~cost:Cost_model.default ~rcache ()
  in
  let d =
    Manager.add_domain mgr
      ~bdf:
        (Bdf.make ~bus:(cfg.rid lsr 8)
           ~device:((cfg.rid lsr 3) land 0x1F)
           ~func:(cfg.rid land 0x7))
      ~iova_limit_pfn:cfg.iova_limit_pfn ()
  in
  let api_clock = Rio_protect.Dma_api.clock api in
  let live = ref [||] in
  (* every IOVA ever mapped: unmapped ones probe torn-down tables and,
     under defer+, stale IOTLB entries *)
  let seen = ref [||] in
  let fail fmt = Printf.ksprintf failwith fmt in
  let step i op =
    let a0 = Cycles.now api_clock and m0 = Cycles.now clock in
    (match op with
    | F_map (bytes, off, dir) ->
        let phys = Addr.phys_of_int ((((i * 7) + 1) lsl Addr.page_shift) + off) in
        let ia = Rio_protect.Dma_api.map_exn api ~ring:0 ~phys ~bytes ~dir in
        let read, write =
          match dir with
          | Rio_core.Rpte.Bidirectional -> (true, true)
          | Rio_core.Rpte.To_memory -> (false, true)
          | Rio_core.Rpte.From_memory -> (true, false)
        in
        let im = Driver.map_exn (Manager.driver d) ~phys ~bytes ~read ~write in
        if ia <> im then fail "op %d: iova %#x vs %#x" i ia im;
        live := Array.append !live [| ia |];
        seen := Array.append !seen [| ia |]
    | F_unmap k when Array.length !live > 0 ->
        let n = Array.length !live in
        let iova = !live.(k mod n) in
        live := Array.append (Array.sub !live 0 (k mod n))
            (Array.sub !live ((k mod n) + 1) (n - (k mod n) - 1));
        Rio_protect.Dma_api.unmap_exn api ~iova ~end_of_burst:true;
        Driver.unmap_exn (Manager.driver d) ~iova
    | F_unmap _ -> ()
    | F_translate (pick, off, write) ->
        let from a = Array.length a > 0 in
        let iova =
          match pick land 3 with
          | 0 | 1 when from !live -> !live.((pick lsr 2) mod Array.length !live) + off
          | 2 when from !seen -> !seen.((pick lsr 2) mod Array.length !seen) + off
          | _ -> 0x7_0000_0000 + (pick lsl Addr.page_shift) + off
        in
        let via_api =
          match Rio_protect.Dma_api.translate_exn api ~iova ~write with
          | p -> Some p
          | exception Driver.Translation_fault -> None
        in
        let via_mgr =
          match Manager.translate_exn mgr ~rid:cfg.rid ~iova ~write with
          | p -> Some p
          | exception Manager.Translation_fault -> None
        in
        let show = function
          | Some p -> Printf.sprintf "%#x" (Addr.to_int p)
          | None -> "fault"
        in
        if not (via_api = via_mgr) then
          fail "op %d %s: %s via Dma_api, %s via Manager" i (fop_to_string op)
            (show via_api) (show via_mgr));
    let da = Cycles.since api_clock a0 and dm = Cycles.since clock m0 in
    if da <> dm then
      fail "op %d %s: %d cycles via Dma_api, %d via Manager" i
        (fop_to_string op) da dm
  in
  List.iteri step ops;
  let same what bm ba =
    List.iter
      (fun c ->
        let m = Rio_sim.Breakdown.total_cycles bm c
        and a = Rio_sim.Breakdown.total_cycles ba c in
        if m <> a then
          fail "%s %s: %d cycles via Manager, %d via Dma_api" what
            (Rio_sim.Breakdown.component_name c) m a)
      Rio_sim.Breakdown.all_components;
    if Rio_sim.Breakdown.calls bm <> Rio_sim.Breakdown.calls ba then
      fail "%s: call counts differ" what
  in
  let drv = Manager.driver d in
  same "map" (Driver.map_breakdown drv)
    (Option.get (Rio_protect.Dma_api.map_breakdown api));
  same "unmap" (Driver.unmap_breakdown drv)
    (Option.get (Rio_protect.Dma_api.unmap_breakdown api));
  if Rio_protect.Dma_api.faults api <> Manager.faults mgr d then
    fail "faults: %d via Dma_api, %d via Manager"
      (Rio_protect.Dma_api.faults api) (Manager.faults mgr d);
  true

let prop_front_doors mode =
  QCheck.Test.make ~count:100
    ~name:(Printf.sprintf "manager = dma_api %s (differential)" (Mode.name mode))
    fops_arb (check_front_doors mode)

(* {1 Scheduler and interference} *)

let small_tenants =
  [
    Scheduler.nic_tenant ~latency_critical:true ~name:"victim" ();
    Scheduler.nvme_tenant ~name:"noisy0" ();
    Scheduler.nvme_tenant ~name:"noisy1" ();
  ]

let test_scheduler_completes_all_tenants () =
  let cfg =
    Scheduler.default_config ~ios_per_tenant:100 ~mode:Mode.Strict
      ~policy:Shared_iotlb.Shared ()
  in
  let results = Scheduler.run cfg small_tenants in
  Alcotest.(check int) "three tenants" 3 (List.length results);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Scheduler.spec.Scheduler.name ^ " completed its I/Os") true
        (r.Scheduler.ios >= 100);
      Alcotest.(check bool) "consumed cycles" true (r.Scheduler.cycles > 0);
      Alcotest.(check int) "no faults" 0 r.Scheduler.faults)
    results;
  (* strict already runs the constant-time allocator: strict+ and
     defer+ would only rerun strict/defer under another name *)
  List.iter
    (fun mode ->
      match
        Scheduler.run { cfg with Scheduler.mode } small_tenants
      with
      | _ -> Alcotest.failf "%s ran" (Mode.name mode)
      | exception Invalid_argument _ -> ())
    [ Mode.Strict_plus; Mode.Defer_plus ]

let test_scheduler_deterministic () =
  let run () =
    let cfg =
      Scheduler.default_config ~ios_per_tenant:60 ~seed:7 ~mode:Mode.Defer
        ~policy:Shared_iotlb.Shared ()
    in
    List.map
      (fun r -> (r.Scheduler.ios, r.Scheduler.cycles, r.Scheduler.misses))
      (Scheduler.run cfg small_tenants)
  in
  Alcotest.(check bool) "same seed, same run" true (run () = run ())

let test_riommu_mode_no_cross_eviction () =
  let cfg =
    Scheduler.default_config ~ios_per_tenant:100 ~mode:Mode.Riommu
      ~policy:Shared_iotlb.Shared ()
  in
  List.iter
    (fun r ->
      Alcotest.(check int)
        (r.Scheduler.spec.Scheduler.name ^ " never victimized") 0
        r.Scheduler.evictions_by_other)
    (Scheduler.run cfg small_tenants)

(* The acceptance property of the interference experiment: the
   latency-critical tenant degrades more under the shared policy than
   under the partitioned policy. *)
let test_interference_contrast () =
  let cells =
    Rio_experiments.Interference.measure ~ios_per_tenant:250 ~noisy_counts:[ 4 ]
      ()
  in
  let find mode policy =
    List.find
      (fun c ->
        c.Rio_experiments.Interference.mode = mode
        && c.Rio_experiments.Interference.policy = policy)
      cells
  in
  List.iter
    (fun mode ->
      let shared = find mode Shared_iotlb.Shared in
      let part = find mode Shared_iotlb.Partitioned in
      Alcotest.(check bool)
        (Mode.name mode ^ ": shared degrades more than partitioned")
        true
        (shared.Rio_experiments.Interference.victim_degradation
        >= part.Rio_experiments.Interference.victim_degradation))
    [ Mode.Strict; Mode.Defer ];
  let strict_shared = find Mode.Strict Shared_iotlb.Shared in
  Alcotest.(check bool) "contention observable under strict+shared" true
    (strict_shared.Rio_experiments.Interference.victim_degradation > 0.02);
  Alcotest.(check bool) "neighbors evict the victim" true
    (strict_shared.Rio_experiments.Interference.victim_evicted_by_other > 0)

(* The paper's isolation claim (§4), measured on the lib/core engine:
   eight neighbors cost the riommu victim less than the strict/shared
   victim, whose IOTLB entries they evict. *)
let test_riommu_isolation () =
  let cells =
    Rio_experiments.Interference.measure ~ios_per_tenant:250 ~noisy_counts:[ 8 ]
      ()
  in
  let degradation mode =
    (List.find (fun c -> c.Rio_experiments.Interference.mode = mode) cells)
      .Rio_experiments.Interference.victim_degradation
  in
  Alcotest.(check bool) "riommu victim degrades less than strict/shared" true
    (degradation Mode.Riommu < degradation Mode.Strict)

(* Every rIOMMU translation goes through Hw.rtranslate_exn exactly once: a
   walk is a miss, any other translation a hit, and none faults. *)
let test_riommu_runs_engine () =
  let cfg =
    Scheduler.default_config ~ios_per_tenant:100 ~mode:Mode.Riommu
      ~policy:Shared_iotlb.Shared ()
  in
  List.iter
    (fun r ->
      let spec = r.Scheduler.spec in
      let name = spec.Scheduler.name in
      let pages = (spec.Scheduler.io_bytes + Addr.page_size - 1) / Addr.page_size in
      Alcotest.(check int) (name ^ " no faults") 0 r.Scheduler.faults;
      Alcotest.(check bool) (name ^ " walks") true (r.Scheduler.misses > 0);
      Alcotest.(check int)
        (name ^ " one lookup per translation")
        (r.Scheduler.ios * (pages + spec.Scheduler.touches))
        (r.Scheduler.hits + r.Scheduler.misses))
    (Scheduler.run cfg small_tenants)

(* riommu- publishes each rPTE with barrier + flush + barrier instead of
   one barrier, so the non-coherent victim pays more per I/O. *)
let test_riommu_minus_pays_flushes () =
  let victim mode =
    let cfg =
      Scheduler.default_config ~ios_per_tenant:100 ~mode
        ~policy:Shared_iotlb.Shared ()
    in
    (List.hd (Scheduler.run cfg small_tenants)).Scheduler.cycles_per_io
  in
  Alcotest.(check bool) "riommu- victim costs more per I/O" true
    (victim Mode.Riommu_minus > victim Mode.Riommu)

let () =
  Alcotest.run "rio_domain"
    [
      ( "isolation",
        [
          Alcotest.test_case "cross-domain translate faults" `Quick
            test_isolation;
          Alcotest.test_case "unknown rid" `Quick test_unknown_rid;
          Alcotest.test_case "private IOVA spaces" `Quick
            test_private_iova_spaces;
        ] );
      ( "policies",
        [
          Alcotest.test_case "shared: cross-eviction accounted" `Quick
            test_shared_cross_eviction_accounted;
          Alcotest.test_case "partitioned: no cross-eviction" `Quick
            test_partitioned_no_cross_eviction;
          Alcotest.test_case "quota caps a domain" `Quick
            test_quota_policy_caps_domain;
          QCheck_alcotest.to_alcotest prop_shared_attribution;
        ] );
      ( "parity",
        [
          Alcotest.test_case "rid states" `Quick
            test_translate_parity_rid_states;
          QCheck_alcotest.to_alcotest prop_translate_parity;
          QCheck_alcotest.to_alcotest (prop_front_doors Mode.Strict_plus);
          QCheck_alcotest.to_alcotest (prop_front_doors Mode.Defer_plus);
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "per-domain flush spares others (partitioned)"
            `Quick test_per_domain_invalidation_spares_others;
          Alcotest.test_case "per-domain flush spares others (shared)" `Quick
            test_per_domain_invalidation_shared_policy;
          Alcotest.test_case "deferred per-domain drains own queue" `Quick
            test_deferred_per_domain_flush_drains_own_queue;
          Alcotest.test_case "deferred global drains all queues" `Quick
            test_deferred_global_flush_drains_all_queues;
          Alcotest.test_case "deferred window closes on flush" `Quick
            test_deferred_window_closes;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "all tenants complete" `Quick
            test_scheduler_completes_all_tenants;
          Alcotest.test_case "deterministic for a seed" `Quick
            test_scheduler_deterministic;
          Alcotest.test_case "riommu immune by construction" `Quick
            test_riommu_mode_no_cross_eviction;
          Alcotest.test_case "interference: shared > partitioned" `Slow
            test_interference_contrast;
          Alcotest.test_case "riommu isolates the victim" `Slow
            test_riommu_isolation;
          Alcotest.test_case "riommu runs the core engine" `Quick
            test_riommu_runs_engine;
          Alcotest.test_case "riommu- pays sync_mem flushes" `Quick
            test_riommu_minus_pays_flushes;
        ] );
    ]
