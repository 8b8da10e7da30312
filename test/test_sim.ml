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
  Alcotest.(check int) "since" 8 (Cycles.since c start);
  Cycles.reset c;
  Alcotest.(check int) "reset" 0 (Cycles.now c)

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
    Alcotest.(check bool) "int_in inclusive" true (y >= 5 && y <= 9);
    let f = Rng.float rng 2.5 in
    Alcotest.(check bool) "float in bound" true (f >= 0. && f < 2.5)
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_summary_stats () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-6)) "stddev (sample)" 2.13809 (Stats.Summary.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.Summary.max s);
  Alcotest.(check (float 1e-9)) "total" 40.0 (Stats.Summary.total s)

let test_summary_merge () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  let all = Stats.Summary.create () in
  List.iter
    (fun x ->
      Stats.Summary.add (if x < 5. then a else b) x;
      Stats.Summary.add all x)
    [ 1.; 2.; 3.; 6.; 7.; 8.; 9. ];
  let m = Stats.Summary.merge a b in
  Alcotest.(check int) "merged count" (Stats.Summary.count all) (Stats.Summary.count m);
  Alcotest.(check (float 1e-9)) "merged mean" (Stats.Summary.mean all) (Stats.Summary.mean m);
  Alcotest.(check (float 1e-6)) "merged stddev" (Stats.Summary.stddev all)
    (Stats.Summary.stddev m)

let test_samples_percentiles () =
  let s = Stats.Samples.create () in
  for i = 1 to 100 do
    Stats.Samples.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "median" 50.5 (Stats.Samples.percentile s 50.);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.Samples.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.Samples.percentile s 100.);
  Alcotest.(check (float 0.5)) "p99" 99.0 (Stats.Samples.percentile s 99.)

let test_samples_empty_percentile () =
  let s = Stats.Samples.create () in
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.Samples.percentile: empty") (fun () ->
      ignore (Stats.Samples.percentile s 50.))

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0. ~hi:10. ~buckets:10 in
  List.iter (Stats.Histogram.add h) [ -1.; 0.; 0.5; 5.; 9.99; 10.; 100. ];
  Alcotest.(check int) "total" 7 (Stats.Histogram.count h);
  Alcotest.(check int) "underflow" 1 (Stats.Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Stats.Histogram.overflow h);
  Alcotest.(check int) "bucket 0" 2 (Stats.Histogram.bucket_count h 0);
  Alcotest.(check int) "bucket 5" 1 (Stats.Histogram.bucket_count h 5);
  Alcotest.(check int) "bucket 9" 1 (Stats.Histogram.bucket_count h 9);
  let lo, hi = Stats.Histogram.bucket_bounds h 3 in
  Alcotest.(check (float 1e-9)) "bounds lo" 3.0 lo;
  Alcotest.(check (float 1e-9)) "bounds hi" 4.0 hi

let test_distribution_means () =
  Alcotest.(check (float 1e-9)) "constant" 5.0 (Distribution.mean (Constant 5.));
  Alcotest.(check (float 1e-9)) "uniform" 3.0 (Distribution.mean (Uniform (1., 5.)));
  Alcotest.(check (float 1e-9)) "exponential" 0.25 (Distribution.mean (Exponential 4.));
  Alcotest.(check (float 1e-9)) "mix" 3.0
    (Distribution.mean (Bernoulli_mix (0.5, Constant 2., Constant 4.)))

let test_distribution_sampling () =
  let rng = Rng.create ~seed:11 in
  let d = Distribution.Exponential 0.5 in
  let s = Stats.Summary.create () in
  for _ = 1 to 20_000 do
    Stats.Summary.add s (Distribution.sample d rng)
  done;
  Alcotest.(check bool) "exponential mean ~2" true
    (abs_float (Stats.Summary.mean s -. 2.0) < 0.1)

let test_zipf_sampling () =
  let rng = Rng.create ~seed:13 in
  let d = Distribution.Zipf (100, 1.0) in
  let counts = Array.make 101 0 in
  for _ = 1 to 10_000 do
    let k = Distribution.sample_int d rng in
    Alcotest.(check bool) "rank in range" true (k >= 1 && k <= 100);
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 1 most popular" true (counts.(1) > counts.(10));
  Alcotest.(check bool) "rank 10 beats rank 90" true (counts.(10) > counts.(90))

let test_event_queue_ordering () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "starts empty" true (Event_queue.is_empty q);
  Event_queue.push q ~time:30 "c";
  Event_queue.push q ~time:10 "a";
  Event_queue.push q ~time:20 "b";
  Alcotest.(check (option int)) "peek" (Some 10) (Event_queue.peek_time q);
  Alcotest.(check (option (pair int string))) "pop a" (Some (10, "a")) (Event_queue.pop q);
  Alcotest.(check (option (pair int string))) "pop b" (Some (20, "b")) (Event_queue.pop q);
  Alcotest.(check (option (pair int string))) "pop c" (Some (30, "c")) (Event_queue.pop q);
  Alcotest.(check (option (pair int string))) "pop empty" None (Event_queue.pop q)

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  List.iteri (fun i s -> Event_queue.push q ~time:(5 + (0 * i)) s) [ "x"; "y"; "z" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list string)) "insertion order on tie" [ "x"; "y"; "z" ] order

(* The determinism guarantee the multi-tenant scheduler builds on: when
   several tenants' events land on the same virtual time, they pop in
   the order they were pushed, even with pops interleaved between the
   pushes. *)
let test_event_queue_ties_across_interleaved_pops () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:5 "a1";
  Event_queue.push q ~time:5 "a2";
  Event_queue.push q ~time:3 "early";
  Alcotest.(check (option (pair int string))) "earlier time first"
    (Some (3, "early")) (Event_queue.pop q);
  (* new same-time arrivals after a pop still rank behind survivors *)
  Event_queue.push q ~time:5 "a3";
  Event_queue.push q ~time:5 "a4";
  let order = List.init 4 (fun _ -> snd (Option.get (Event_queue.pop q))) in
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
        match Event_queue.pop q with
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
        match Event_queue.pop q with
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
  Event_queue.push q ~time:20 "b";
  Event_queue.push q ~time:10 "a";
  Alcotest.(check int) "next_time is the minimum" 10 (Event_queue.next_time q);
  Alcotest.(check string) "pop_exn pops the minimum" "a" (Event_queue.pop_exn q);
  Alcotest.(check string) "then the next" "b" (Event_queue.pop_exn q);
  Alcotest.(check bool) "empty again" true (Event_queue.is_empty q)

(* Satellite: the heap's spare capacity must not pin popped payloads.
   Allocate and pop inside a closure so no local root outlives it, then
   a weak pointer tells us whether the queue's payload array was the
   last thing keeping the value alive. *)
let test_event_queue_releases_popped_payloads () =
  let q = Event_queue.create () in
  let w = Weak.create 1 in
  let push_and_pop () =
    let payload = Bytes.make 64 'p' in
    Weak.set w 0 (Some payload);
    Event_queue.push q ~time:2 (Bytes.make 16 'k');
    Event_queue.push q ~time:1 payload;
    assert (Event_queue.pop_exn q == payload)
  in
  push_and_pop ();
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "queue still holds the other event" false
    (Event_queue.is_empty q);
  Alcotest.(check bool) "popped payload was not pinned by the heap" true
    (Weak.get w 0 = None)

(* Random push/pop interleavings (not just push-all-then-drain), seeded
   through the repo's own Rng: every pop must return the minimum
   (time, seq) of the current contents, so within any drain phase pops
   come out in nondecreasing (time, seq) order. *)
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
          Event_queue.push q ~time (time, !seq);
          model := (time, !seq) :: !model;
          incr seq
        end
        else begin
          let expected =
            List.fold_left min (List.hd !model) (List.tl !model)
          in
          if Event_queue.next_time q <> fst expected then ok := false;
          if Event_queue.pop_exn q <> expected then ok := false;
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
          Event_queue.push q ~time (time, !seq);
          model := (time, !seq) :: !model;
          incr seq
        end
        else begin
          let expected = List.fold_left min (List.hd !model) (List.tl !model) in
          if Event_queue.next_time q <> fst expected then ok := false;
          let got = Event_queue.pop_exn q in
          if got <> expected then ok := false;
          popped_max := max !popped_max (fst got);
          model := List.filter (fun e -> e <> expected) !model
        end
      done;
      (* full drain: remaining events must come out in (time, seq) order *)
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, ((time, _) as e)) ->
            t = time && e > last && drain e
      in
      !ok && drain (min_int, min_int) && Event_queue.length q = 0)

let prop_summary_mean_in_range =
  QCheck.Test.make ~name:"summary mean lies within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      Stats.Summary.mean s >= Stats.Summary.min s -. 1e-9
      && Stats.Summary.mean s <= Stats.Summary.max s +. 1e-9)

let prop_percentile_monotonic =
  QCheck.Test.make ~name:"percentiles are monotonic in rank" ~count:100
    QCheck.(list_of_size Gen.(2 -- 100) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Stats.Samples.create () in
      List.iter (Stats.Samples.add s) xs;
      let p25 = Stats.Samples.percentile s 25. in
      let p50 = Stats.Samples.percentile s 50. in
      let p75 = Stats.Samples.percentile s 75. in
      p25 <= p50 && p50 <= p75)

let () =
  Alcotest.run "rio_sim"
    [
      ( "cycles",
        [
          Alcotest.test_case "basic accounting" `Quick test_cycles_basic;
          Alcotest.test_case "measure" `Quick test_cycles_measure;
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
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary_stats;
          Alcotest.test_case "summary merge" `Quick test_summary_merge;
          Alcotest.test_case "percentiles" `Quick test_samples_percentiles;
          Alcotest.test_case "empty percentile raises" `Quick test_samples_empty_percentile;
          Alcotest.test_case "histogram" `Quick test_histogram;
          QCheck_alcotest.to_alcotest prop_summary_mean_in_range;
          QCheck_alcotest.to_alcotest prop_percentile_monotonic;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "analytic means" `Quick test_distribution_means;
          Alcotest.test_case "exponential sampling" `Quick test_distribution_sampling;
          Alcotest.test_case "zipf sampling" `Quick test_zipf_sampling;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_event_queue_ordering;
          Alcotest.test_case "fifo on ties" `Quick test_event_queue_fifo_ties;
          Alcotest.test_case "ties across interleaved pops" `Quick
            test_event_queue_ties_across_interleaved_pops;
          Alcotest.test_case "pop_exn and next_time" `Quick
            test_event_queue_pop_exn_next_time;
          Alcotest.test_case "popped payloads are released" `Quick
            test_event_queue_releases_popped_payloads;
          QCheck_alcotest.to_alcotest prop_event_queue_sorted;
          QCheck_alcotest.to_alcotest prop_event_queue_stable_ties;
          QCheck_alcotest.to_alcotest prop_event_queue_interleaved_matches_model;
          QCheck_alcotest.to_alcotest prop_event_queue_spreads_and_late_pushes;
        ] );
    ]
