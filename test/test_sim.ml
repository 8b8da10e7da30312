(* Unit and property tests for the simulation substrate (rio_sim). *)

open Rio_sim

let test_cycles_basic () =
  let c = Cycles.create () in
  Alcotest.(check int) "starts at zero" 0 (Cycles.now c);
  Cycles.charge c 100;
  Cycles.charge c 42;
  Alcotest.(check int) "accumulates" 142 (Cycles.now c);
  let start = Cycles.now c in
  Cycles.charge c 8;
  Alcotest.(check int) "since" 8 (Cycles.since c start)

let test_cycles_measure () =
  let c = Cycles.create () in
  Cycles.charge c 10;
  let result, cost =
    Cycles.measure c (fun () ->
        Cycles.charge c 25;
        "done")
  in
  Alcotest.(check string) "result" "done" result;
  Alcotest.(check int) "measured" 25 cost;
  Alcotest.(check int) "clock kept" 35 (Cycles.now c)

(* Table 1's "sum" row: the component means added up. *)
let mean_sum b =
  List.fold_left
    (fun acc c -> acc +. Breakdown.mean_cycles b c)
    0. Breakdown.all_components

let test_breakdown_phase_and_charge () =
  (* a phase is bracketed with Cycles.now/since, as the drivers do *)
  let clock = Cycles.create () in
  let b = Breakdown.create () in
  let s = Cycles.now clock in
  Cycles.charge clock 30;
  Breakdown.charge b Breakdown.Iova_alloc (Cycles.since clock s);
  let s = Cycles.now clock in
  Cycles.charge clock 50;
  Breakdown.charge b Breakdown.Page_table (Cycles.since clock s);
  Breakdown.charge b Breakdown.Iotlb_inv 200;
  Alcotest.(check int) "phase attributes its cycles" 30
    (Breakdown.total_cycles b Breakdown.Iova_alloc);
  Alcotest.(check int) "charge does not move the clock" 80 (Cycles.now clock);
  Alcotest.(check int) "untouched component" 0
    (Breakdown.total_cycles b Breakdown.Other);
  Alcotest.(check (float 1e-9)) "mean is 0 before any call" 0.
    (Breakdown.mean_cycles b Breakdown.Iotlb_inv);
  Breakdown.record_call b;
  Breakdown.record_call b;
  Alcotest.(check int) "calls" 2 (Breakdown.calls b);
  Alcotest.(check (float 1e-9)) "mean per call" 100.
    (Breakdown.mean_cycles b Breakdown.Iotlb_inv);
  Alcotest.(check (float 1e-9)) "sum row adds the means" 140. (mean_sum b);
  Breakdown.reset b;
  Alcotest.(check int) "reset clears calls" 0 (Breakdown.calls b);
  Alcotest.(check (float 1e-9)) "reset clears totals" 0. (mean_sum b)

let test_breakdown_component_names () =
  let names = List.map Breakdown.component_name Breakdown.all_components in
  Alcotest.(check int) "six components" 6 (List.length names);
  Alcotest.(check int) "names are distinct" 6
    (List.length (List.sort_uniq compare names))

let test_cost_model_conversions () =
  let cm = Cost_model.default in
  Alcotest.(check (float 1e-9)) "3.1e9 cycles/s" 3.1e9 (Cost_model.cycles_per_second cm);
  Alcotest.(check (float 1e-6)) "3100 cycles = 1us" 1.0 (Cost_model.cycles_to_us cm 3100);
  Alcotest.(check (float 1e-6)) "31 cycles = 10ns" 10.0 (Cost_model.cycles_to_ns cm 31)

let test_cost_model_calibration () =
  let cm = Cost_model.default in
  (* Invalidation dominates unmap per Table 1 (~2,127 cycles); the paper's
     own simulation busy-waits 2,150. Keep us within that band. *)
  Alcotest.(check bool) "iotlb invalidation ~2100"
    true
    (cm.Cost_model.iotlb_invalidate >= 2000 && cm.Cost_model.iotlb_invalidate <= 2200);
  (* IOTLB miss = 4-reference walk ~1,532 cycles (§5.3). *)
  let walk = 4 * cm.Cost_model.io_walk_ref in
  Alcotest.(check bool) "4-ref walk ~1532" true (walk >= 1400 && walk <= 1650)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 in
  let b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done;
  let c = Rng.create ~seed:43 in
  Alcotest.(check bool) "different seed differs" true
    (Rng.next_int64 (Rng.create ~seed:42) <> Rng.next_int64 c)

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 10 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_bounds () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "int in bound" true (x >= 0 && x < 17);
    let y = Rng.int_in rng 5 9 in
    Alcotest.(check bool) "int_in inclusive" true (y >= 5 && y <= 9)
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

(* The earliest event as [(time, payload)], read with the queue's two
   allocation-free calls. *)
let pop q =
  if Event_queue.is_empty q then None
  else
    let time = Event_queue.next_time q in
    Some (time, Event_queue.pop_exn q)

(* Payloads are ints; these tests queue indexes into a name table. *)
let names = [| "a"; "b"; "c"; "x"; "y"; "z"; "early"; "a1"; "a2"; "a3"; "a4" |]
let id name =
  let rec go i = if names.(i) = name then i else go (i + 1) in
  go 0

let push_name q ~time name = Event_queue.push q ~time (id name)
let pop_name q = Option.map (fun (time, i) -> (time, names.(i))) (pop q)

let test_event_queue_ordering () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "starts empty" true (Event_queue.is_empty q);
  push_name q ~time:30 "c";
  push_name q ~time:10 "a";
  push_name q ~time:20 "b";
  Alcotest.(check int) "peek" 10 (Event_queue.next_time q);
  Alcotest.(check (option (pair int string))) "pop a" (Some (10, "a")) (pop_name q);
  Alcotest.(check (option (pair int string))) "pop b" (Some (20, "b")) (pop_name q);
  Alcotest.(check (option (pair int string))) "pop c" (Some (30, "c")) (pop_name q);
  Alcotest.(check (option (pair int string))) "pop empty" None (pop_name q)

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  List.iteri (fun i s -> push_name q ~time:(5 + (0 * i)) s) [ "x"; "y"; "z" ];
  let order = List.init 3 (fun _ -> snd (Option.get (pop_name q))) in
  Alcotest.(check (list string)) "insertion order on tie" [ "x"; "y"; "z" ] order

(* The determinism guarantee the multi-tenant scheduler builds on: when
   several tenants' events land on the same virtual time, they pop in
   the order they were pushed, even with pops interleaved between the
   pushes. *)
let test_event_queue_ties_across_interleaved_pops () =
  let q = Event_queue.create () in
  push_name q ~time:5 "a1";
  push_name q ~time:5 "a2";
  push_name q ~time:3 "early";
  Alcotest.(check (option (pair int string))) "earlier time first"
    (Some (3, "early")) (pop_name q);
  (* new same-time arrivals after a pop still rank behind survivors *)
  push_name q ~time:5 "a3";
  push_name q ~time:5 "a4";
  let order = List.init 4 (fun _ -> snd (Option.get (pop_name q))) in
  Alcotest.(check (list string)) "insertion order preserved"
    [ "a1"; "a2"; "a3"; "a4" ] order

let prop_event_queue_stable_ties =
  (* With times drawn from a tiny range, ties are plentiful: a full
     drain must yield, within every time value, strictly increasing
     insertion sequence numbers. *)
  QCheck.Test.make ~name:"event queue is FIFO within equal times" ~count:300
    QCheck.(list (int_bound 4))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.push q ~time:t i) times;
      let rec drain acc =
        match pop q with
        | None -> List.rev acc
        | Some (t, seq) -> drain ((t, seq) :: acc)
      in
      let popped = drain [] in
      let rec stable = function
        | (t1, s1) :: ((t2, s2) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && s1 < s2)) && stable rest
        | _ -> true
      in
      stable popped)

let prop_event_queue_sorted =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.push q ~time:t i) times;
      let rec drain last =
        match pop q with
        | None -> true
        | Some (t, _) -> t >= last && drain t
      in
      drain min_int)

let test_event_queue_pop_exn_next_time () =
  let q = Event_queue.create () in
  (match Event_queue.next_time q with
  | _ -> Alcotest.fail "next_time on empty should raise"
  | exception Not_found -> ());
  (match Event_queue.pop_exn q with
  | _ -> Alcotest.fail "pop_exn on empty should raise"
  | exception Not_found -> ());
  push_name q ~time:20 "b";
  push_name q ~time:10 "a";
  Alcotest.(check int) "next_time is the minimum" 10 (Event_queue.next_time q);
  Alcotest.(check string) "pop_exn pops the minimum" "a"
    names.(Event_queue.pop_exn q);
  Alcotest.(check string) "then the next" "b" names.(Event_queue.pop_exn q);
  Alcotest.(check bool) "empty again" true (Event_queue.is_empty q)

(* Random push/pop interleavings (not just push-all-then-drain), seeded
   through the repo's own Rng: every pop must return the minimum
   (time, seq) of the current contents, so within any drain phase pops
   come out in nondecreasing (time, seq) order. Each event's payload
   is its seq; the model keeps (time, seq). *)
let prop_event_queue_interleaved_matches_model =
  QCheck.Test.make
    ~name:"random push/pop interleavings pop the (time, seq) minimum"
    ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let q = Event_queue.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      for _ = 1 to 2_000 do
        if Rng.int rng 100 < 55 || !model = [] then begin
          let time = Rng.int rng 50 in
          Event_queue.push q ~time !seq;
          model := (time, !seq) :: !model;
          incr seq
        end
        else begin
          let expected =
            List.fold_left min (List.hd !model) (List.tl !model)
          in
          if Event_queue.next_time q <> fst expected then ok := false;
          if Event_queue.pop_exn q <> snd expected then ok := false;
          model := List.filter (fun e -> e <> expected) !model
        end
      done;
      !ok && Event_queue.length q = List.length !model)

(* Dense ties, times spread across many orders of magnitude,
   far-future outliers and pushes at or before the latest pop. A naive
   sorted model is the oracle; FIFO on ties must survive them all. *)
let prop_event_queue_spreads_and_late_pushes =
  QCheck.Test.make
    ~name:"heap matches model under large spreads, outliers and late pushes"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let q = Event_queue.create () in
      let model = ref [] in
      let seq = ref 0 in
      let popped_max = ref 0 in
      let ok = ref true in
      let pushed_at = Array.make 1_500 (-1) in
      for _ = 1 to 1_500 do
        if Rng.int rng 100 < 50 || !model = [] then begin
          let time =
            match Rng.int rng 4 with
            | 0 -> Rng.int rng 8 (* dense ties *)
            | 1 -> Rng.int rng 256
            | 2 -> Rng.int rng (1 lsl 20)
            | _ ->
                (* at or behind every pop so far *)
                Rng.int rng (!popped_max + 1)
          in
          (* far-future outliers *)
          let time =
            if Rng.int rng 20 = 0 then time + (1 lsl (30 + Rng.int rng 10))
            else time
          in
          Event_queue.push q ~time !seq;
          pushed_at.(!seq) <- time;
          model := (time, !seq) :: !model;
          incr seq
        end
        else begin
          let expected = List.fold_left min (List.hd !model) (List.tl !model) in
          let time = Event_queue.next_time q in
          if time <> fst expected then ok := false;
          let got = Event_queue.pop_exn q in
          if got <> snd expected then ok := false;
          popped_max := max !popped_max time;
          model := List.filter (fun e -> e <> expected) !model
        end
      done;
      (* full drain: remaining events must come out in (time, seq) order *)
      let rec drain last =
        match pop q with
        | None -> true
        | Some ((t, seq) as e) -> t = pushed_at.(seq) && e > last && drain e
      in
      !ok && drain (min_int, min_int) && Event_queue.length q = 0)

let () =
  Alcotest.run "rio_sim"
    [
      ( "cycles",
        [
          Alcotest.test_case "basic accounting" `Quick test_cycles_basic;
          Alcotest.test_case "measure" `Quick test_cycles_measure;
        ] );
      (* Alcotest sizes the test-name column to the longest group name;
         with "cycle_phases" the longest, printed test ids stay as they were. *)
      ( "cycle_phases",
        [
          Alcotest.test_case "phase and charge" `Quick test_breakdown_phase_and_charge;
          Alcotest.test_case "component names" `Quick test_breakdown_component_names;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "time conversions" `Quick test_cost_model_conversions;
          Alcotest.test_case "paper calibration bands" `Quick test_cost_model_calibration;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_event_queue_ordering;
          Alcotest.test_case "fifo on ties" `Quick test_event_queue_fifo_ties;
          Alcotest.test_case "ties across interleaved pops" `Quick
            test_event_queue_ties_across_interleaved_pops;
          Alcotest.test_case "pop_exn and next_time" `Quick
            test_event_queue_pop_exn_next_time;
          QCheck_alcotest.to_alcotest prop_event_queue_sorted;
          QCheck_alcotest.to_alcotest prop_event_queue_stable_ties;
          QCheck_alcotest.to_alcotest prop_event_queue_interleaved_matches_model;
          QCheck_alcotest.to_alcotest prop_event_queue_spreads_and_late_pushes;
        ] );
    ]
