(* Unit tests for the baseline IOTLB model (rio_iotlb). *)

module Iotlb = Rio_iotlb.Iotlb
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Rng = Rio_sim.Rng

let make ?(capacity = 4) () =
  let clock = Cycles.create () in
  (Iotlb.create ~capacity ~clock ~cost:Cost_model.default (), clock)

(* Option view of [Iotlb.find]; no payload in these tests is negative. *)
let lookup t ~bdf ~vpn =
  match Iotlb.find t ~bdf ~vpn ~absent:(-1) with -1 -> None | v -> Some v

let test_miss_then_hit () =
  let t, _ = make () in
  Alcotest.(check (option int)) "cold miss" None (lookup t ~bdf:1 ~vpn:10);
  ignore (Iotlb.insert t ~bdf:1 ~vpn:10 42 : int);
  Alcotest.(check (option int)) "hit" (Some 42) (lookup t ~bdf:1 ~vpn:10);
  Alcotest.(check int) "one hit" 1 (Iotlb.hits t);
  Alcotest.(check int) "one miss" 1 (Iotlb.misses t)

let test_keying () =
  let t, _ = make () in
  ignore (Iotlb.insert t ~bdf:1 ~vpn:10 100 : int);
  ignore (Iotlb.insert t ~bdf:2 ~vpn:10 200 : int);
  Alcotest.(check (option int)) "bdf distinguishes" (Some 100)
    (lookup t ~bdf:1 ~vpn:10);
  Alcotest.(check (option int)) "other device" (Some 200)
    (lookup t ~bdf:2 ~vpn:10);
  Alcotest.(check (option int)) "vpn distinguishes" None (lookup t ~bdf:1 ~vpn:11)

let test_lru_eviction () =
  let t, _ = make ~capacity:2 () in
  ignore (Iotlb.insert t ~bdf:0 ~vpn:1 1 : int);
  ignore (Iotlb.insert t ~bdf:0 ~vpn:2 2 : int);
  (* touch 1 so 2 becomes LRU *)
  ignore (lookup t ~bdf:0 ~vpn:1);
  Alcotest.(check int) "insert returns the victim's bdf" 0
    (Iotlb.insert t ~bdf:0 ~vpn:3 3);
  Alcotest.(check int) "one eviction" 1 (Iotlb.evictions t);
  Alcotest.(check (option int)) "LRU victim gone" None (lookup t ~bdf:0 ~vpn:2);
  Alcotest.(check (option int)) "recently used kept" (Some 1)
    (lookup t ~bdf:0 ~vpn:1);
  Alcotest.(check (option int)) "newcomer present" (Some 3)
    (lookup t ~bdf:0 ~vpn:3)

let test_invalidate_cost_and_effect () =
  let t, clock = make () in
  ignore (Iotlb.insert t ~bdf:0 ~vpn:7 7 : int);
  let before = Cycles.now clock in
  Iotlb.invalidate t ~bdf:0 ~vpn:7;
  Alcotest.(check int) "invalidation charges ~2100 cycles"
    Cost_model.default.Cost_model.iotlb_invalidate
    (Cycles.since clock before);
  Alcotest.(check (option int)) "entry gone" None (lookup t ~bdf:0 ~vpn:7);
  (* invalidating an absent entry still costs the command *)
  let before = Cycles.now clock in
  Iotlb.invalidate t ~bdf:0 ~vpn:99;
  Alcotest.(check bool) "absent invalidation still charged" true
    (Cycles.since clock before >= Cost_model.default.Cost_model.iotlb_invalidate)

let test_flush_all () =
  let t, clock = make () in
  for vpn = 1 to 4 do
    ignore (Iotlb.insert t ~bdf:0 ~vpn vpn : int)
  done;
  Alcotest.(check int) "full" 4 (Iotlb.occupancy t);
  let before = Cycles.now clock in
  Iotlb.flush_all t;
  Alcotest.(check int) "flush charges one command"
    Cost_model.default.Cost_model.iotlb_global_flush
    (Cycles.since clock before);
  Alcotest.(check int) "empty" 0 (Iotlb.occupancy t)

let test_insert_update_in_place () =
  let t, _ = make ~capacity:2 () in
  ignore (Iotlb.insert t ~bdf:0 ~vpn:1 10 : int);
  ignore (Iotlb.insert t ~bdf:0 ~vpn:1 20 : int);
  Alcotest.(check int) "no duplicate entries" 1 (Iotlb.occupancy t);
  Alcotest.(check (option int)) "updated" (Some 20) (lookup t ~bdf:0 ~vpn:1)

let test_stale_entry_usable_until_invalidated () =
  (* The primitive behind the deferred-mode vulnerability window: nothing
     implicitly removes an entry when the OS changes the page table. *)
  let t, _ = make () in
  ignore (Iotlb.insert t ~bdf:0 ~vpn:5 55 : int);
  (* ... OS unmaps the page in the page table, but defers invalidation. *)
  Alcotest.(check (option int)) "stale entry still hits" (Some 55)
    (lookup t ~bdf:0 ~vpn:5);
  Iotlb.flush_all t;
  Alcotest.(check (option int)) "flush closes the window" None
    (lookup t ~bdf:0 ~vpn:5)

let test_find () =
  let t, _ = make () in
  Alcotest.(check int) "cold find returns absent" (-1)
    (Iotlb.find t ~bdf:1 ~vpn:10 ~absent:(-1));
  ignore (Iotlb.insert t ~bdf:1 ~vpn:10 42 : int);
  Alcotest.(check int) "hit returns the value" 42
    (Iotlb.find t ~bdf:1 ~vpn:10 ~absent:(-1));
  Alcotest.(check int) "shares the hit counter with lookup" 1 (Iotlb.hits t);
  Alcotest.(check int) "shares the miss counter with lookup" 1 (Iotlb.misses t)

(* The packed-key chained-bucket implementation against the obvious
   reference: an assoc list kept in MRU-first order. Both sides see the
   same 10k random operations; every observable - lookup results, the
   victim bdfs [insert] returns and their order, iteration order,
   occupancy, counters - must agree. Each seed runs at capacities 1, 3
   and 8. Capacity 1 evicts on every new fill; at 3 and 8, 72 keys
   over 16 buckets often share a chain, so evictions, invalidations and
   drops unlink chain heads, middles and tails. *)
let prop_matches_reference_model =
  QCheck.Test.make ~name:"matches assoc-list LRU reference over 10k random ops"
    ~count:5
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun capacity ->
          let rng = Rng.create ~seed in
          let evicted = ref [] and expect_evicted = ref [] in
          let clock = Cycles.create () in
          let t = Iotlb.create ~capacity ~clock ~cost:Cost_model.default () in
          let model = ref [] in
          let mhits = ref 0 and mmisses = ref 0 in
          let model_lookup key =
            match List.assoc_opt key !model with
            | Some v ->
                incr mhits;
                model := (key, v) :: List.remove_assoc key !model;
                Some v
            | None ->
                incr mmisses;
                None
          in
          let model_insert key v =
            if List.mem_assoc key !model then
              model := (key, v) :: List.remove_assoc key !model
            else begin
              if List.length !model = capacity then begin
                let victim, _ = List.nth !model (capacity - 1) in
                expect_evicted := fst victim :: !expect_evicted;
                model := List.filteri (fun i _ -> i < capacity - 1) !model
              end;
              model := (key, v) :: !model
            end
          in
          for step = 1 to 10_000 do
            let bdf = Rng.int rng 3 and vpn = Rng.int rng 24 in
            let key = (bdf, vpn) in
            match Rng.int rng 100 with
            | op when op < 35 ->
                model_insert key step;
                let victim = Iotlb.insert t ~bdf ~vpn step in
                if victim >= 0 then evicted := victim :: !evicted
            | op when op < 70 ->
                let expected = model_lookup key in
                if lookup t ~bdf ~vpn <> expected then
                  failwith "lookup mismatch"
            | op when op < 80 -> (
                let expected = model_lookup key in
                match Iotlb.find t ~bdf ~vpn ~absent:(-1) with
                | -1 -> if expected <> None then failwith "find missed a hit"
                | v -> if expected <> Some v then failwith "find mismatch")
            | op when op < 88 ->
                model := List.remove_assoc key !model;
                Iotlb.invalidate t ~bdf ~vpn
            | op when op < 95 ->
                let present = List.mem_assoc key !model in
                model := List.remove_assoc key !model;
                if Iotlb.drop t ~bdf ~vpn <> present then failwith "drop mismatch"
            | _ ->
                if Iotlb.occupancy t <> List.length !model then
                  failwith "occupancy mismatch";
                let order = ref [] in
                Iotlb.iter t (fun ~bdf ~vpn _ -> order := (bdf, vpn) :: !order);
                if List.rev !order <> List.map fst !model then
                  failwith "iter order mismatch"
          done;
          Iotlb.hits t = !mhits
          && Iotlb.misses t = !mmisses
          && Iotlb.evictions t = List.length !expect_evicted
          && !evicted = !expect_evicted)
        [ 1; 3; 8 ])

let prop_capacity_never_exceeded =
  QCheck.Test.make ~name:"occupancy never exceeds capacity" ~count:100
    QCheck.(list (pair (int_bound 3) (int_bound 40)))
    (fun ops ->
      let t, _ = make ~capacity:8 () in
      List.iter
        (fun (bdf, vpn) ->
          ignore (Iotlb.insert t ~bdf ~vpn (bdf + vpn) : int);
          if Iotlb.occupancy t > 8 then failwith "over capacity")
        ops;
      Iotlb.occupancy t <= 8)

let () =
  Alcotest.run "rio_iotlb"
    [
      ( "iotlb",
        [
          Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
          Alcotest.test_case "keying by bdf and vpn" `Quick test_keying;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "invalidate cost and effect" `Quick
            test_invalidate_cost_and_effect;
          Alcotest.test_case "flush all" `Quick test_flush_all;
          Alcotest.test_case "insert updates in place" `Quick test_insert_update_in_place;
          Alcotest.test_case "stale entries persist until invalidated" `Quick
            test_stale_entry_usable_until_invalidated;
          Alcotest.test_case "find" `Quick test_find;
          QCheck_alcotest.to_alcotest prop_capacity_never_exceeded;
          QCheck_alcotest.to_alcotest prop_matches_reference_model;
        ] );
    ]
