(* Unit and property tests for the 4-level page table (rio_pagetable): the
   boxed radix oracle (radix.ml, in this directory) and the flat arena
   checked against it. *)

module Addr = Rio_memory.Addr
module Coherency = Rio_memory.Coherency
module Frame_allocator = Rio_memory.Frame_allocator
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Pte = Rio_pagetable.Pte

let make ?(coherent = false) () =
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:100_000 in
  let coherency = Coherency.create ~coherent ~cost ~clock in
  (Radix.create ~frames ~coherency ~clock ~cost, clock)

let pte pfn = { Radix.pfn; read = true; write = true }

let test_create_charges_one_node () =
  (* The satellite fix: create must allocate exactly the root node - one
     pt_node_alloc charge, one counted node, no throwaway record. *)
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:100 in
  let coherency = Coherency.create ~coherent:true ~cost ~clock in
  let before = Cycles.now clock in
  let t = Radix.create ~frames ~coherency ~clock ~cost in
  Alcotest.(check int) "exactly one node allocation charged"
    cost.Cost_model.pt_node_alloc
    (Cycles.since clock before);
  Alcotest.(check int) "exactly one node counted" 1 (Radix.node_count t);
  Alcotest.(check int) "exactly one frame consumed" 1
    (Frame_allocator.allocated frames)

let test_pte_encode_decode () =
  let p = Pte.pack_make ~read:true ~write:false ~pfn:0xabcde in
  Alcotest.(check int) "decode inverts encode" 0xabcde
    (Addr.pfn (Pte.packed_frame p));
  Alcotest.(check bool) "a packed PTE is never the absence sentinel" true
    (p >= 0 && Pte.packed_none < 0)

let test_pte_permits () =
  let ro = Pte.pack_make ~read:true ~write:false ~pfn:1 in
  Alcotest.(check bool) "read allowed" true (Pte.packed_permits ro ~write:false);
  Alcotest.(check bool) "write denied" false (Pte.packed_permits ro ~write:true)

let test_map_walk_roundtrip () =
  let t, _ = make () in
  let iova = 0x7f_0000_3000 in
  Alcotest.(check bool) "map ok" true (Radix.map t ~iova (pte 42) = Ok ());
  (match Radix.walk t ~iova with
  | Some p -> Alcotest.(check int) "walk finds pfn" 42 p.Radix.pfn
  | None -> Alcotest.fail "walk missed");
  Alcotest.(check int) "mapped count" 1 (Radix.mapped_count t)

let test_double_map_rejected () =
  let t, _ = make () in
  let iova = 0x1000 in
  Alcotest.(check bool) "first" true (Radix.map t ~iova (pte 1) = Ok ());
  Alcotest.(check bool) "second rejected" true
    (Radix.map t ~iova (pte 2) = Error `Already_mapped)

let test_unmap () =
  let t, _ = make () in
  let iova = 0x2000 in
  ignore (Radix.map t ~iova (pte 7));
  (match Radix.unmap t ~iova with
  | Ok p -> Alcotest.(check int) "unmap returns pte" 7 p.Radix.pfn
  | Error `Not_mapped -> Alcotest.fail "was mapped");
  Alcotest.(check bool) "walk faults after unmap" true (Radix.walk t ~iova = None);
  Alcotest.(check bool) "re-unmap errors" true
    (Radix.unmap t ~iova = Error `Not_mapped);
  Alcotest.(check int) "count back to zero" 0 (Radix.mapped_count t)

let test_distinct_iovas_independent () =
  let t, _ = make () in
  (* Same level-4 index under different level-3 tables, etc. *)
  let iovas = [ 0x1000; 0x201000; 0x4000_1000; 0x80_0000_1000 ] in
  List.iteri (fun i iova -> ignore (Radix.map t ~iova (pte (100 + i)))) iovas;
  List.iteri
    (fun i iova ->
      match Radix.walk t ~iova with
      | Some p -> Alcotest.(check int) "right pfn" (100 + i) p.Radix.pfn
      | None -> Alcotest.fail "missing mapping")
    iovas;
  ignore (Radix.unmap t ~iova:0x201000);
  Alcotest.(check bool) "neighbour survives" true (Radix.walk t ~iova:0x1000 <> None)

let test_node_sharing () =
  let t, _ = make () in
  let base_nodes = Radix.node_count t in
  (* Two IOVAs on adjacent pages share all interior tables. *)
  ignore (Radix.map t ~iova:0x1000 (pte 1));
  let after_first = Radix.node_count t in
  ignore (Radix.map t ~iova:0x2000 (pte 2));
  Alcotest.(check int) "adjacent page allocates no new tables" after_first
    (Radix.node_count t);
  Alcotest.(check int) "first map allocated 3 interior tables" 3
    (after_first - base_nodes)

let test_iova_range_checked () =
  let t, _ = make () in
  Alcotest.check_raises "negative" (Invalid_argument "Radix: iova range") (fun () ->
      ignore (Radix.walk t ~iova:(-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Radix: iova range") (fun () ->
      ignore (Radix.walk t ~iova:(1 lsl 48)))

let test_noncoherent_visibility () =
  (* map and unmap sync their leaf, so on a non-coherent system the
     walker view agrees with the CPU view after each: nothing written is
     left unpublished in the twin lanes. *)
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:100_000 in
  let coherency = Coherency.create ~coherent:false ~cost ~clock in
  let t = Radix.create ~frames ~coherency ~clock ~cost in
  let views_agree () =
    let cpu = Radix.lookup_cpu t ~iova:0x5000 in
    let hw = Radix.walk t ~iova:0x5000 in
    cpu = hw
  in
  ignore (Radix.map t ~iova:0x5000 (pte 9));
  Alcotest.(check bool) "map leaves walker and CPU views equal" true (views_agree ());
  Alcotest.(check bool) "walker sees synced mapping" true (Radix.walk t ~iova:0x5000 <> None);
  ignore (Radix.unmap t ~iova:0x5000);
  Alcotest.(check bool) "unmap leaves walker and CPU views equal" true
    (views_agree ());
  Alcotest.(check bool) "walker sees unmap" true (Radix.walk t ~iova:0x5000 = None)

let test_walk_cost_is_four_dram_refs () =
  let t, clock = make () in
  ignore (Radix.map t ~iova:0x3000 (pte 3));
  let before = Cycles.now clock in
  ignore (Radix.walk t ~iova:0x3000);
  let cost = Cost_model.default in
  Alcotest.(check int) "walk charges 4 refs"
    (4 * cost.Cost_model.io_walk_ref)
    (Cycles.since clock before)

let test_map_cost_in_table1_band () =
  (* Steady-state insertion (tables preallocated) should land near the
     paper's ~533-590 cycles for the page-table component of map. *)
  let t, clock = make () in
  ignore (Radix.map t ~iova:0x10_0000 (pte 1));
  ignore (Radix.unmap t ~iova:0x10_0000);
  let before = Cycles.now clock in
  ignore (Radix.map t ~iova:0x10_0000 (pte 2));
  let c = Cycles.since clock before in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state map cost %d in [400,700]" c)
    true
    (c >= 400 && c <= 700)

(* ---- Arena vs Radix oracle ------------------------------------------- *)

module Arena = Rio_pagetable.Arena
module Rng = Rio_sim.Rng

(* Two independent rigs over the same op trail. The arena must agree
   with the boxed reference on every observable: op outcome, walk
   result, mapped/node counts - and on the cycle meter, which pins the
   walk depths and per-level charge parity that keep experiment outputs
   byte-identical. *)
let make_arena ?(coherent = false) () =
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:100_000 in
  let coherency = Coherency.create ~coherent ~cost ~clock in
  (Arena.create ~frames ~coherency ~clock ~cost, clock)

let test_arena_create_charges_one_node () =
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:100 in
  let coherency = Coherency.create ~coherent:true ~cost ~clock in
  let before = Cycles.now clock in
  let t = Arena.create ~frames ~coherency ~clock ~cost in
  Alcotest.(check int) "exactly one node allocation charged"
    cost.Cost_model.pt_node_alloc
    (Cycles.since clock before);
  Alcotest.(check int) "exactly one node counted" 1 (Arena.node_count t);
  Alcotest.(check int) "exactly one frame consumed" 1
    (Frame_allocator.allocated frames)

let prop_arena_matches_radix =
  QCheck.Test.make
    ~name:"arena agrees with the radix oracle (results, counts, cycles)"
    ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_bound 3))
    (fun (seed, coherent_bits) ->
      let coherent = coherent_bits land 1 = 1 in
      let radix, rclock = make ~coherent () in
      let arena, aclock = make_arena ~coherent () in
      let rng = Rng.create ~seed in
      let ok = ref true in
      let agree what a b = if a <> b then begin
        ok := false;
        Printf.eprintf "arena/radix disagree on %s: %d vs %d\n" what a b
      end in
      for _ = 1 to 400 do
        (* a small page universe keeps collisions (remap, re-unmap,
           shared interiors) frequent *)
        let page = Rng.int rng 64 in
        (* spread pages across interior tables so carve/free paths of
           every level get exercised *)
        let iova = page * Addr.page_size * (1 lsl (9 * (page land 3))) in
        let pfn = Rng.int rng 0xFFFF in
        let r0 = Cycles.now rclock and a0 = Cycles.now aclock in
        (match Rng.int rng 3 with
        | 0 ->
            let rr = Radix.map radix ~iova (pte pfn) in
            agree "map outcome"
              (match rr with Ok () -> 1 | Error `Already_mapped -> 0)
              (match
                 Arena.map_exn arena ~iova
                   ~pte:(Pte.pack_make ~read:true ~write:true ~pfn)
               with
              | () -> 1
              | exception Arena.Already_mapped -> 0)
        | 1 ->
            let rr = Radix.unmap radix ~iova in
            agree "unmap pfn"
              (match rr with Ok p -> p.Radix.pfn | Error `Not_mapped -> -1)
              (match Arena.unmap_exn arena ~iova with
              | p -> Addr.pfn (Pte.packed_frame p)
              | exception Arena.Not_mapped -> -1)
        | _ ->
            let rr = Radix.walk radix ~iova in
            let ar = Arena.walk arena ~iova in
            agree "walk pfn"
              (match rr with Some p -> p.Radix.pfn | None -> -1)
              (if ar < 0 then -1 else Addr.pfn (Pte.packed_frame ar)));
        (* identical per-op charge = identical walk depth and per-level
           uncached-reference accounting *)
        agree "op cycles" (Cycles.since rclock r0) (Cycles.since aclock a0);
        agree "mapped_count" (Radix.mapped_count radix) (Arena.mapped_count arena);
        agree "node_count" (Radix.node_count radix) (Arena.node_count arena)
      done;
      !ok)

(* The arena builds its cell store at its first map; until then a walk
   or unmap must charge what the oracle's empty root charges. Each case
   is one op on a table nothing has touched (then a walk of the same
   IOVA), compared on result, cycles and frames drawn. *)
let prop_arena_first_op_matches_radix =
  QCheck.Test.make
    ~name:"a fresh arena's first op agrees with the radix oracle (cycles, frames)"
    ~count:90
    QCheck.(triple (int_bound 2) (int_bound ((1 lsl 36) - 1)) bool)
    (fun (kind, page, coherent) ->
      let rig () =
        let clock = Cycles.create () in
        let cost = Cost_model.default in
        let frames = Frame_allocator.create ~total_frames:64 in
        (frames, clock, Coherency.create ~coherent ~cost ~clock, cost)
      in
      let rframes, rclock, coherency, cost = rig () in
      let radix = Radix.create ~frames:rframes ~coherency ~clock:rclock ~cost in
      let aframes, aclock, coherency, cost = rig () in
      let arena = Arena.create ~frames:aframes ~coherency ~clock:aclock ~cost in
      let iova = page * Addr.page_size in
      let pfn_of_packed v = if v < 0 then -1 else Addr.pfn (Pte.packed_frame v) in
      let walks () =
        ( (match Radix.walk radix ~iova with Some p -> p.Radix.pfn | None -> -1),
          pfn_of_packed (Arena.walk arena ~iova) )
      in
      let op () =
        match kind with
        | 0 -> walks ()
        | 1 ->
            ( (match Radix.unmap radix ~iova with
              | Ok p -> p.Radix.pfn
              | Error `Not_mapped -> -1),
              match Arena.unmap_exn arena ~iova with
              | p -> pfn_of_packed p
              | exception Arena.Not_mapped -> -1 )
        | _ ->
            ( (match Radix.map radix ~iova (pte 77) with
              | Ok () -> 1
              | Error `Already_mapped -> 0),
              match
                Arena.map_exn arena ~iova
                  ~pte:(Pte.pack_make ~read:true ~write:true ~pfn:77)
              with
              | () -> 1
              | exception Arena.Already_mapped -> 0 )
      in
      (* each step: same answer, same cycles, same frames drawn *)
      let agrees step =
        let r0 = Cycles.now rclock and a0 = Cycles.now aclock in
        let r, a = step () in
        r = a
        && Cycles.since rclock r0 = Cycles.since aclock a0
        && Frame_allocator.allocated rframes = Frame_allocator.allocated aframes
        && Radix.node_count radix = Arena.node_count arena
        && Radix.mapped_count radix = Arena.mapped_count arena
      in
      (* the op itself, then a walk of the same IOVA over what it left *)
      agrees op && agrees walks)

let test_arena_node_accounting_trail () =
  (* Satellite check: after a randomized insert/remove churn, the
     arena's node bookkeeping (live count, freelist reuse, frame
     retention) matches the boxed reference exactly. *)
  let radix, _ = make () in
  let arena, _ = make_arena () in
  let rng = Rng.create ~seed:2026 in
  let live = Hashtbl.create 64 in
  for _ = 1 to 3_000 do
    let page = Rng.int rng 512 in
    let iova = page * Addr.page_size * (1 lsl (9 * (page land 3))) in
    if Hashtbl.mem live iova then begin
      ignore (Radix.unmap radix ~iova);
      ignore (Arena.unmap_exn arena ~iova : int);
      Hashtbl.remove live iova
    end
    else begin
      ignore (Radix.map radix ~iova (pte page));
      Arena.map_exn arena ~iova ~pte:(Pte.pack_make ~read:true ~write:true ~pfn:page);
      Hashtbl.add live iova ()
    end;
    Alcotest.(check int) "node_count tracks reference"
      (Radix.node_count radix) (Arena.node_count arena)
  done;
  Alcotest.(check int) "mapped_count tracks reference"
    (Radix.mapped_count radix) (Arena.mapped_count arena);
  (* drain everything: only the root must survive, and the arena's
     high-water store must cover every node it ever held *)
  let high_water = Arena.store_nodes arena in
  Hashtbl.iter (fun iova () ->
      ignore (Radix.unmap radix ~iova);
      ignore (Arena.unmap_exn arena ~iova : int)) live;
  Alcotest.(check int) "drained: no mappings left" 0 (Arena.mapped_count arena);
  Alcotest.(check int) "drained: node_count still tracks reference"
    (Radix.node_count radix) (Arena.node_count arena);
  (* interior tables are retained by unmap (as in the reference); only
     reset returns them to the freelist *)
  Arena.reset arena;
  Alcotest.(check int) "reset frees all but the root" 1 (Arena.node_count arena);
  Alcotest.(check bool) "freelist retains carved slots" true
    (Arena.store_nodes arena = high_water && high_water > 1)

let test_arena_reset_retains_store () =
  let arena, _ = make_arena () in
  for page = 0 to 63 do
    Arena.map_exn arena ~iova:(page * Addr.page_size * 513)
      ~pte:(Pte.pack_make ~read:true ~write:false ~pfn:page)
  done;
  let high_water = Arena.store_nodes arena in
  Arena.reset arena;
  Alcotest.(check int) "reset drops all mappings" 0 (Arena.mapped_count arena);
  Alcotest.(check int) "reset keeps only the root live" 1 (Arena.node_count arena);
  Alcotest.(check int) "reset retains the carved store" high_water
    (Arena.store_nodes arena);
  (* the freelist must actually be reusable *)
  for page = 0 to 63 do
    Arena.map_exn arena ~iova:(page * Addr.page_size * 513)
      ~pte:(Pte.pack_make ~read:true ~write:false ~pfn:page)
  done;
  Alcotest.(check int) "remap reuses freed nodes, carves nothing new"
    high_water (Arena.store_nodes arena)

let prop_map_walk_consistent =
  QCheck.Test.make ~name:"walk finds exactly the mapped pfn for any iova set"
    ~count:100
    QCheck.(small_list (int_bound 0xFFFFF))
    (fun pages ->
      let pages = List.sort_uniq compare pages in
      let t, _ = make () in
      List.iteri
        (fun i page -> ignore (Radix.map t ~iova:(page * Addr.page_size) (pte i)))
        pages;
      List.for_all
        (fun page ->
          match Radix.walk t ~iova:(page * Addr.page_size) with
          | Some _ -> true
          | None -> false)
        pages
      && Radix.mapped_count t = List.length pages)

let prop_unmap_removes_only_target =
  QCheck.Test.make ~name:"unmap removes the target and nothing else" ~count:100
    QCheck.(pair (small_list (int_bound 0xFFFF)) (int_bound 0xFFFF))
    (fun (pages, victim) ->
      let pages = List.sort_uniq compare pages in
      QCheck.assume (List.mem victim pages);
      let t, _ = make () in
      List.iteri
        (fun i page -> ignore (Radix.map t ~iova:(page * Addr.page_size) (pte i)))
        pages;
      ignore (Radix.unmap t ~iova:(victim * Addr.page_size));
      List.for_all
        (fun page ->
          let found = Radix.walk t ~iova:(page * Addr.page_size) <> None in
          if page = victim then not found else found)
        pages)

let () =
  Alcotest.run "rio_pagetable"
    [
      ( "pte",
        [
          Alcotest.test_case "encode/decode" `Quick test_pte_encode_decode;
          Alcotest.test_case "permissions" `Quick test_pte_permits;
        ] );
      ( "radix",
        [
          Alcotest.test_case "create charges exactly one node" `Quick
            test_create_charges_one_node;
          Alcotest.test_case "map/walk round trip" `Quick test_map_walk_roundtrip;
          Alcotest.test_case "double map rejected" `Quick test_double_map_rejected;
          Alcotest.test_case "unmap" `Quick test_unmap;
          Alcotest.test_case "independent iovas" `Quick test_distinct_iovas_independent;
          Alcotest.test_case "interior node sharing" `Quick test_node_sharing;
          Alcotest.test_case "iova range checked" `Quick test_iova_range_checked;
          Alcotest.test_case "non-coherent visibility" `Quick test_noncoherent_visibility;
          QCheck_alcotest.to_alcotest prop_map_walk_consistent;
          QCheck_alcotest.to_alcotest prop_unmap_removes_only_target;
        ] );
      ( "arena",
        [
          Alcotest.test_case "create charges exactly one node" `Quick
            test_arena_create_charges_one_node;
          Alcotest.test_case "node accounting matches reference over churn"
            `Quick test_arena_node_accounting_trail;
          Alcotest.test_case "reset retains the carved store" `Quick
            test_arena_reset_retains_store;
          QCheck_alcotest.to_alcotest prop_arena_matches_radix;
          QCheck_alcotest.to_alcotest prop_arena_first_op_matches_radix;
        ] );
      ( "costs",
        [
          Alcotest.test_case "walk = 4 DRAM refs" `Quick test_walk_cost_is_four_dram_refs;
          Alcotest.test_case "map cost in Table 1 band" `Quick test_map_cost_in_table1_band;
        ] );
    ]
