(* Unit and property tests for IOVA allocation (rio_iova): the red-black
   interval tree, the baseline Linux allocator (with its linear-scan
   pathology), and the constant-time allocator. *)

module Rbtree = Rio_iova.Rbtree
module Linux_allocator = Rio_iova.Linux_allocator
module Fast_allocator = Rio_iova.Fast_allocator
module Allocator = Rio_iova.Allocator
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

(* Every allocator op has one body: [alloc_pfn] returns -1 on
   exhaustion and [find_exn] raises [Not_found]. These turn both into
   what a test asserts on. *)
let ok_pfn pfn = if pfn < 0 then Alcotest.fail "IOVA space exhausted" else pfn

let findable find_exn ~pfn =
  match find_exn ~pfn with _ -> true | exception Not_found -> false

let check_tree t label =
  match Rbtree.check_invariants t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: rbtree invariant broken: %s" label msg

(* {1 Rbtree} *)

let contains t pfn =
  match Rbtree.find_containing_exn t pfn with
  | _ -> true
  | exception Not_found -> false

let test_rbtree_insert_find () =
  let t = Rbtree.create () in
  let _ = Rbtree.insert t ~lo:10 ~hi:19 in
  let _ = Rbtree.insert t ~lo:30 ~hi:39 in
  let _ = Rbtree.insert t ~lo:0 ~hi:4 in
  check_tree t "after inserts";
  Alcotest.(check int) "size" 3 (Rbtree.size t);
  (match Rbtree.find_containing_exn t 15 with
  | n -> Alcotest.(check (pair int int)) "found" (10, 19) (Rbtree.lo n, Rbtree.hi n)
  | exception Not_found -> Alcotest.fail "15 should be found");
  Alcotest.(check bool) "gap misses" false (contains t 25)

let test_rbtree_overlap_rejected () =
  let t = Rbtree.create () in
  let _ = Rbtree.insert t ~lo:10 ~hi:20 in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Rbtree.insert: overlapping interval") (fun () ->
      ignore (Rbtree.insert t ~lo:20 ~hi:25))

let test_rbtree_delete () =
  let t = Rbtree.create () in
  let nodes = List.map (fun i -> Rbtree.insert t ~lo:(i * 10) ~hi:((i * 10) + 5))
      [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  List.iteri
    (fun i n ->
      if i mod 2 = 0 then begin
        Rbtree.delete t n;
        check_tree t (Printf.sprintf "after delete %d" i)
      end)
    nodes;
  Alcotest.(check int) "half deleted" 4 (Rbtree.size t);
  Alcotest.(check bool) "deleted gone" false (contains t 0);
  Alcotest.(check bool) "kept present" true (contains t 10)

let test_rbtree_double_delete_detected () =
  let t = Rbtree.create () in
  let n = Rbtree.insert t ~lo:1 ~hi:2 in
  Rbtree.delete t n;
  Alcotest.check_raises "double delete"
    (Invalid_argument "Rbtree.delete: node already deleted") (fun () ->
      Rbtree.delete t n)

let test_rbtree_neighbours () =
  let t = Rbtree.create () in
  let a = Rbtree.insert t ~lo:0 ~hi:9 in
  let b = Rbtree.insert t ~lo:20 ~hi:29 in
  let c = Rbtree.insert t ~lo:40 ~hi:49 in
  Alcotest.(check bool) "prev of b is a" true
    (match Rbtree.prev t b with Some n -> n == a | None -> false);
  Alcotest.(check bool) "next of b is c" true
    (match Rbtree.next t b with Some n -> n == c | None -> false);
  Alcotest.(check bool) "prev of min is None" true (Rbtree.prev t a = None);
  Alcotest.(check bool) "next of max is None" true (Rbtree.next t c = None);
  Alcotest.(check bool) "max node" true
    (match Rbtree.max_node t with Some n -> n == c | None -> false)

let test_rbtree_inorder_iteration () =
  let t = Rbtree.create () in
  List.iter (fun lo -> ignore (Rbtree.insert t ~lo ~hi:lo))
    [ 50; 10; 90; 30; 70; 20; 80 ];
  (* walk down from the maximum: prepending yields ascending order *)
  let rec down acc = function
    | None -> acc
    | Some n -> down (Rbtree.lo n :: acc) (Rbtree.prev t n)
  in
  Alcotest.(check (list int)) "sorted order" [ 10; 20; 30; 50; 70; 80; 90 ]
    (down [] (Rbtree.max_node t))

let prop_rbtree_random_ops =
  QCheck.Test.make ~name:"rbtree invariants hold under random insert/delete"
    ~count:150
    QCheck.(list (pair bool (int_bound 500)))
    (fun ops ->
      let t = Rbtree.create () in
      let live = ref [] in
      List.iter
        (fun (is_insert, x) ->
          if is_insert then begin
            (* non-overlapping by construction: intervals [10x, 10x+5] *)
            if not (List.mem_assoc x !live) then begin
              let n = Rbtree.insert t ~lo:(x * 10) ~hi:((x * 10) + 5) in
              live := (x, n) :: !live
            end
          end
          else begin
            match !live with
            | [] -> ()
            | (k, n) :: rest ->
                ignore k;
                Rbtree.delete t n;
                live := rest
          end)
        ops;
      match Rbtree.check_invariants t with Ok () -> true | Error _ -> false)

let prop_rbtree_find_matches_reference =
  QCheck.Test.make ~name:"find_containing agrees with a reference list" ~count:100
    QCheck.(pair (small_list (int_bound 200)) (int_bound 2200))
    (fun (xs, probe) ->
      let xs = List.sort_uniq compare xs in
      let t = Rbtree.create () in
      List.iter (fun x -> ignore (Rbtree.insert t ~lo:(x * 10) ~hi:((x * 10) + 4))) xs;
      let reference =
        List.exists (fun x -> probe >= x * 10 && probe <= (x * 10) + 4) xs
      in
      contains t probe = reference)

(* {1 Linux allocator} *)

let make_linux () =
  let clock = Cycles.create () in
  (Linux_allocator.create ~limit_pfn:0xFFFFF ~clock ~cost:Cost_model.default, clock)

let test_linux_alloc_top_down () =
  let a, _ = make_linux () in
  let p1 = ok_pfn (Linux_allocator.alloc_pfn a ~size:1) in
  let p2 = ok_pfn (Linux_allocator.alloc_pfn a ~size:1) in
  Alcotest.(check int) "first from the top" 0xFFFFF p1;
  Alcotest.(check int) "next below" 0xFFFFE p2

let test_linux_find_free () =
  let a, _ = make_linux () in
  let p = ok_pfn (Linux_allocator.alloc_pfn a ~size:4) in
  (match Linux_allocator.find_exn a ~pfn:(p + 2) with
  | n ->
      Alcotest.(check int) "range lo" p (Rbtree.lo n);
      Linux_allocator.free a n
  | exception Not_found -> Alcotest.fail "allocated range must be findable");
  Alcotest.(check bool) "gone after free" false
    (findable (Linux_allocator.find_exn a) ~pfn:p);
  Alcotest.(check int) "live 0" 0 (Linux_allocator.live a)

let test_linux_reuses_freed_space () =
  let a, _ = make_linux () in
  let p1 = ok_pfn (Linux_allocator.alloc_pfn a ~size:1) in
  let n = Linux_allocator.find_exn a ~pfn:p1 in
  Linux_allocator.free a n;
  let p2 = ok_pfn (Linux_allocator.alloc_pfn a ~size:1) in
  Alcotest.(check int) "freed top reused" p1 p2

let test_linux_exhaustion () =
  let clock = Cycles.create () in
  let a = Linux_allocator.create ~limit_pfn:3 ~clock ~cost:Cost_model.default in
  for _ = 0 to 3 do
    Alcotest.(check bool) "fits" true (Linux_allocator.alloc_pfn a ~size:1 >= 0)
  done;
  Alcotest.(check int) "exhausted" (-1) (Linux_allocator.alloc_pfn a ~size:1)

(* Drive the allocator the way a NIC under netperf does: an Rx flow of
   one-page header buffers and a Tx flow of multi-page data buffers whose
   sizes vary (scatter-gather fragments of a 16KB message are unequal),
   with Rx and Tx completions interleaved in nondeterministic arrival
   order. Freed holes then frequently mismatch the next request's size
   and the cached-node optimization keeps restarting the downward scan
   above the packed live population: average allocation cost grows over
   time toward being linear in the live population - the "long-term"
   pathology behind Table 1's ~3,986-cycle strict-mode allocations.
   Returns per-window (avg scan length, avg alloc cycles). *)
let ring_churn_mixed a clock ~packets ~rounds ~windows =
  let rng = Rio_sim.Rng.create ~seed:9 in
  let next_d_size () = Rio_sim.Rng.int_in rng 2 5 in
  let h_fifo = Queue.create () and d_fifo = Queue.create () in
  let alloc_h () = Queue.add (ok_pfn (Linux_allocator.alloc_pfn a ~size:1)) h_fifo in
  let alloc_d () =
    Queue.add (ok_pfn (Linux_allocator.alloc_pfn a ~size:(next_d_size ()))) d_fifo
  in
  for _ = 1 to packets do
    alloc_h ();
    alloc_d ()
  done;
  let free_pfn pfn = Linux_allocator.free a (Linux_allocator.find_exn a ~pfn) in
  let results = ref [] in
  let scans = ref 0 and cycles = ref 0 and count = ref 0 in
  let per_window = rounds / windows in
  for round = 1 to rounds do
    (* one interrupt: 16 Rx + 16 Tx completions in shuffled arrival order *)
    let events = Array.init 32 (fun i -> i < 16) in
    Rio_sim.Rng.shuffle rng events;
    Array.iter
      (fun is_rx ->
        let fifo = if is_rx then h_fifo else d_fifo in
        free_pfn (Queue.pop fifo);
        let t0 = Cycles.now clock in
        if is_rx then alloc_h () else alloc_d ();
        cycles := !cycles + Cycles.since clock t0;
        scans := !scans + Linux_allocator.last_scan_length a;
        incr count)
      events;
    if round mod per_window = 0 then begin
      results :=
        ( float_of_int !scans /. float_of_int !count,
          float_of_int !cycles /. float_of_int !count )
        :: !results;
      scans := 0;
      cycles := 0;
      count := 0
    end
  done;
  List.rev !results

let test_linux_mixed_size_pathology () =
  let a, clock = make_linux () in
  let windows = ring_churn_mixed a clock ~packets:128 ~rounds:600 ~windows:3 in
  match windows with
  | [ (s1, _); (_, _); (s3, c3) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "scan grows over time (%.1f -> %.1f)" s1 s3)
        true (s3 > s1 *. 1.5);
      Alcotest.(check bool)
        (Printf.sprintf "late-window alloc cost %.0f cycles is pathological" c3)
        true (c3 > 700.)
  | _ -> Alcotest.fail "expected three windows"

let test_linux_uniform_fifo_stays_cheap () =
  (* With a single allocation size, freed top gaps fit the next request
     and the cached-node optimization keeps scans constant: the pathology
     is specific to mixed sizes (header vs data buffers). *)
  let a, _ = make_linux () in
  let fifo = Queue.create () in
  for _ = 1 to 128 do
    Queue.add (ok_pfn (Linux_allocator.alloc_pfn a ~size:1)) fifo
  done;
  let scans = ref 0 in
  let rounds = 64 in
  for _ = 1 to rounds do
    let node = Linux_allocator.find_exn a ~pfn:(Queue.pop fifo) in
    Linux_allocator.free a node;
    Queue.add (ok_pfn (Linux_allocator.alloc_pfn a ~size:1)) fifo;
    scans := !scans + Linux_allocator.last_scan_length a
  done;
  Alcotest.(check bool)
    (Printf.sprintf "uniform-size scans (%d total) stay constant" !scans)
    true
    (!scans <= 4 * rounds)

let test_linux_alloc_charges_cycles () =
  let a, clock = make_linux () in
  let before = Cycles.now clock in
  ignore (Linux_allocator.alloc_pfn a ~size:1);
  Alcotest.(check bool) "alloc costs cycles" true (Cycles.since clock before > 0)

(* {1 Fast allocator} *)

let make_fast () =
  let clock = Cycles.create () in
  (Fast_allocator.create ~limit_pfn:0xFFFFF ~clock ~cost:Cost_model.default, clock)

let test_fast_recycles_parked () =
  let a, _ = make_fast () in
  let p1 = ok_pfn (Fast_allocator.alloc_pfn a ~size:1) in
  let n = Fast_allocator.find_exn a ~pfn:p1 in
  Fast_allocator.free a n;
  Alcotest.(check int) "parked" 1 (Fast_allocator.parked a);
  let p2 = ok_pfn (Fast_allocator.alloc_pfn a ~size:1) in
  Alcotest.(check int) "same range recycled" p1 p2;
  Alcotest.(check int) "nothing parked" 0 (Fast_allocator.parked a);
  Alcotest.(check int) "tree keeps one node" 1 (Fast_allocator.tree_size a)

let test_fast_parked_not_findable () =
  let a, _ = make_fast () in
  let p = ok_pfn (Fast_allocator.alloc_pfn a ~size:1) in
  let n = Fast_allocator.find_exn a ~pfn:p in
  Fast_allocator.free a n;
  Alcotest.(check bool) "parked range is not live" false
    (findable (Fast_allocator.find_exn a) ~pfn:p)

let test_fast_size_classes () =
  let a, _ = make_fast () in
  let p1 = ok_pfn (Fast_allocator.alloc_pfn a ~size:1) in
  let p2 = ok_pfn (Fast_allocator.alloc_pfn a ~size:4) in
  let n1 = Fast_allocator.find_exn a ~pfn:p1 in
  Fast_allocator.free a n1;
  (* a size-4 request must not steal the parked size-1 range *)
  let p3 = ok_pfn (Fast_allocator.alloc_pfn a ~size:4) in
  Alcotest.(check bool) "size classes separate" true (p3 <> p1 && p3 <> p2);
  let p4 = ok_pfn (Fast_allocator.alloc_pfn a ~size:1) in
  Alcotest.(check int) "size-1 recycled" p1 p4

let test_fast_constant_time_steady_state () =
  (* Ring-style usage under the fast allocator: allocation cost must be
     flat regardless of the live population. *)
  let a, clock = make_fast () in
  let fifo = Queue.create () in
  for _ = 1 to 256 do
    Queue.add (ok_pfn (Fast_allocator.alloc_pfn a ~size:1)) fifo
  done;
  (* warm: park + recycle once *)
  let oldest = Queue.pop fifo in
  Fast_allocator.free a (Fast_allocator.find_exn a ~pfn:oldest);
  Queue.add (ok_pfn (Fast_allocator.alloc_pfn a ~size:1)) fifo;
  let costs = ref [] in
  for _ = 1 to 32 do
    let oldest = Queue.pop fifo in
    Fast_allocator.free a (Fast_allocator.find_exn a ~pfn:oldest);
    let before = Cycles.now clock in
    Queue.add (ok_pfn (Fast_allocator.alloc_pfn a ~size:1)) fifo;
    costs := Cycles.since clock before :: !costs
  done;
  let max_cost = List.fold_left max 0 !costs in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state alloc cost %d stays near Table 1's ~92" max_cost)
    true
    (max_cost <= 150)

let test_fast_double_free_detected () =
  let a, _ = make_fast () in
  let p = ok_pfn (Fast_allocator.alloc_pfn a ~size:1) in
  let n = Fast_allocator.find_exn a ~pfn:p in
  Fast_allocator.free a n;
  Alcotest.check_raises "double free"
    (Invalid_argument "Fast_allocator.free: range already parked") (fun () ->
      Fast_allocator.free a n)

let test_fast_exhaustion () =
  let clock = Cycles.create () in
  let a = Fast_allocator.create ~limit_pfn:3 ~clock ~cost:Cost_model.default in
  for _ = 0 to 3 do
    Alcotest.(check bool) "fits" true (Fast_allocator.alloc_pfn a ~size:1 >= 0)
  done;
  Alcotest.(check int) "exhausted" (-1) (Fast_allocator.alloc_pfn a ~size:1);
  Alcotest.(check int) "live unchanged" 4 (Fast_allocator.live a)

(* {1 Cross-allocator properties} *)

let allocator_spec kind =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s allocator: ranges unique and disjoint under churn"
         (match kind with Allocator.Linux -> "linux" | Allocator.Fast -> "fast"))
    ~count:60
    QCheck.(list (option (int_bound 3)))
    (fun ops ->
      let clock = Cycles.create () in
      let a = Allocator.create ~kind ~limit_pfn:0xFFFF ~clock ~cost:Cost_model.default in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some size_sel ->
              let size = size_sel + 1 in
              (match Allocator.alloc_pfn a ~size with
              | -1 -> ()
              | pfn ->
                  (* no overlap with current live set *)
                  List.iter
                    (fun (p, s) ->
                      if pfn < p + s && p < pfn + size then ok := false)
                    !live;
                  live := (pfn, size) :: !live)
          | None -> (
              match !live with
              | [] -> ()
              | (p, _) :: rest -> (
                  match Allocator.find_exn a ~pfn:p with
                  | node ->
                      Allocator.free a node;
                      live := rest
                  | exception Not_found -> ok := false)))
        ops;
      !ok && Allocator.live a = List.length !live)

let test_table1_alloc_cost_bands () =
  (* The headline Table 1 claim: under realistic two-ring mixed-size churn
     at the paper's live population (~1-2K IOVAs), baseline allocation
     settles in the thousands of cycles while the fast allocator stays
     near a hundred. *)
  let clock = Cycles.create () in
  let lx = Linux_allocator.create ~limit_pfn:0xFFFFF ~clock ~cost:Cost_model.default in
  let windows = ring_churn_mixed lx clock ~packets:512 ~rounds:2000 ~windows:4 in
  let _, late = List.nth windows 3 in
  Alcotest.(check bool)
    (Printf.sprintf "linux churn alloc settles at %.0f cycles (thousands)" late)
    true
    (late > 1500. && late < 12_000.)

(* {1 Magazine cache} *)

module Magazine = Rio_iova.Magazine

let make_magazine ?magazine_size ?depot_max ?max_cached_size
    ?(kind = Allocator.Linux) ?(limit_pfn = 0xFFFF) () =
  let clock = Cycles.create () in
  let base = Allocator.create ~kind ~limit_pfn ~clock ~cost:Cost_model.default in
  ( Magazine.create ?magazine_size ?depot_max ?max_cached_size ~base ~clock
      ~cost:Cost_model.default (),
    base )

let test_magazine_hit_miss_cycle () =
  let m, base = make_magazine () in
  let pfn = ok_pfn (Magazine.alloc_pfn m ~size:1) in
  Alcotest.(check int) "cold alloc is a miss" 1 (Magazine.stats m).Magazine.misses;
  let node = Magazine.find_exn m ~pfn in
  Magazine.free m node;
  Alcotest.(check bool) "parked range hidden from find" true
    (not (findable (Magazine.find_exn m) ~pfn));
  Alcotest.(check int) "parked range is not live" 0 (Magazine.live m);
  Alcotest.(check bool) "but its address space stays reserved in the base" true
    (findable (Allocator.find_exn base) ~pfn);
  let pfn2 = ok_pfn (Magazine.alloc_pfn m ~size:1) in
  Alcotest.(check int) "recycled the parked range" pfn pfn2;
  Alcotest.(check int) "served from the magazine" 1
    (Magazine.stats m).Magazine.hits;
  Alcotest.(check bool) "findable again once handed out" true
    (findable (Magazine.find_exn m) ~pfn);
  Alcotest.(check int) "live again" 1 (Magazine.live m)

let test_magazine_depot_exchange () =
  let m, _ = make_magazine ~magazine_size:2 ~depot_max:2 () in
  let pfns = List.init 6 (fun _ -> ok_pfn (Magazine.alloc_pfn m ~size:1)) in
  List.iter (fun pfn -> Magazine.free m (Magazine.find_exn m ~pfn)) pfns;
  Alcotest.(check int) "a full magazine parked in the depot" 1
    (Magazine.stats m).Magazine.depot_puts;
  let again = List.init 6 (fun _ -> ok_pfn (Magazine.alloc_pfn m ~size:1)) in
  Alcotest.(check int) "all six ranges recycled" 6
    (List.length (List.filter (fun p -> List.mem p pfns) again));
  let s = Magazine.stats m in
  Alcotest.(check int) "every re-alloc served from a magazine" 6 s.Magazine.hits;
  Alcotest.(check int) "one magazine reloaded from the depot" 1
    s.Magazine.depot_gets;
  Alcotest.(check int) "no new base misses" 6 s.Magazine.misses

let test_magazine_depot_overflow_flushes () =
  let m, base = make_magazine ~magazine_size:1 ~depot_max:0 () in
  let pfns = List.init 3 (fun _ -> ok_pfn (Magazine.alloc_pfn m ~size:1)) in
  List.iter (fun pfn -> Magazine.free m (Magazine.find_exn m ~pfn)) pfns;
  Alcotest.(check bool) "depot overflow spilled back to the base" true
    ((Magazine.stats m).Magazine.flushes >= 1);
  (* the spilled range really left the base allocator's tree *)
  Alcotest.(check bool) "some freed range is gone from the base" true
    (List.exists (fun pfn -> not (findable (Allocator.find_exn base) ~pfn)) pfns)

let test_magazine_bypass_large () =
  let m, base = make_magazine ~max_cached_size:2 () in
  let pfn = ok_pfn (Magazine.alloc_pfn m ~size:3) in
  Alcotest.(check int) "large alloc bypasses" 1
    (Magazine.stats m).Magazine.bypasses;
  Magazine.free m (Magazine.find_exn m ~pfn);
  Alcotest.(check int) "large free bypasses too" 2
    (Magazine.stats m).Magazine.bypasses;
  Alcotest.(check bool) "bypassed free reached the base" false
    (findable (Allocator.find_exn base) ~pfn);
  Alcotest.(check int) "nothing was cached" 0 (Magazine.stats m).Magazine.hits

let test_magazine_drain () =
  let m, base = make_magazine () in
  let pfns = List.init 4 (fun _ -> ok_pfn (Magazine.alloc_pfn m ~size:1)) in
  List.iter (fun pfn -> Magazine.free m (Magazine.find_exn m ~pfn)) pfns;
  Magazine.drain m;
  List.iter
    (fun pfn ->
      Alcotest.(check bool) "drained range released by the base" false
        (findable (Allocator.find_exn base) ~pfn))
    pfns;
  (* nothing cached any more: the next alloc is a base miss *)
  ignore (ok_pfn (Magazine.alloc_pfn m ~size:1));
  Alcotest.(check int) "post-drain alloc misses" 5
    (Magazine.stats m).Magazine.misses

let test_magazine_wraps_fast_allocator () =
  (* The fast allocator has its own parking (cached_free) discipline;
     the magazine must hand nodes back un-parked or Fast.free raises. *)
  let m, _ = make_magazine ~kind:Allocator.Fast () in
  let pfn = ok_pfn (Magazine.alloc_pfn m ~size:2) in
  Magazine.free m (Magazine.find_exn m ~pfn);
  let pfn2 = ok_pfn (Magazine.alloc_pfn m ~size:2) in
  Alcotest.(check int) "recycled through the magazine" pfn pfn2;
  Magazine.free m (Magazine.find_exn m ~pfn:pfn2);
  Magazine.drain m;
  Alcotest.(check bool) "drain flushed through Fast.free" true
    ((Magazine.stats m).Magazine.flushes >= 1);
  ignore (ok_pfn (Magazine.alloc_pfn m ~size:2));
  Alcotest.(check int) "still consistent after drain" 1 (Magazine.live m)

(* A size class is built at the first free of its size. Until then it
   misses like a built class that holds nothing, and the miss leaves
   the built classes alone; the first free of a new size builds that
   class only (as many words as the first class took). *)
let test_magazine_empty_class () =
  let m, _ = make_magazine ~magazine_size:4 ~depot_max:1 () in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let free pfn () = Magazine.free m (Magazine.find_exn m ~pfn) in
  let ones = List.init 3 (fun _ -> ok_pfn (Magazine.alloc_pfn m ~size:1)) in
  let class1 = words (free (List.nth ones 0)) in
  Alcotest.(check bool) "first free builds class 1" true (class1 > 0.);
  Alcotest.(check (float 0.)) "later frees build nothing" 0.
    (words (free (List.nth ones 1)));
  free (List.nth ones 2) ();
  let before = Magazine.stats m in
  let two = ok_pfn (Magazine.alloc_pfn m ~size:2) in
  let after = Magazine.stats m in
  Alcotest.(check int) "unbuilt class misses" (before.Magazine.misses + 1)
    after.Magazine.misses;
  Alcotest.(check int) "and hits nothing" before.Magazine.hits
    after.Magazine.hits;
  Alcotest.(check (float 0.)) "first free of size 2 builds class 2 alone"
    class1 (words (free two));
  Alcotest.(check (list int)) "class 1 intact: LIFO hits" (List.rev ones)
    (List.init 3 (fun _ -> ok_pfn (Magazine.alloc_pfn m ~size:1)));
  Alcotest.(check int) "class 2 serves its range" two
    (Magazine.alloc_pfn m ~size:2);
  Alcotest.(check int) "every re-alloc hit" 4 (Magazine.stats m).Magazine.hits

let test_magazine_exhaustion () =
  (* Four pages of IOVA space: fill them, then ask again through the
     cache (a miss falls through to the base) and around it (bypass). *)
  let m, _ = make_magazine ~max_cached_size:1 ~limit_pfn:3 () in
  for _ = 0 to 3 do
    ignore (ok_pfn (Magazine.alloc_pfn m ~size:1))
  done;
  Alcotest.(check int) "miss passes -1 through" (-1) (Magazine.alloc_pfn m ~size:1);
  Alcotest.(check int) "counted as a miss" 5 (Magazine.stats m).Magazine.misses;
  Alcotest.(check int) "bypass passes -1 through" (-1)
    (Magazine.alloc_pfn m ~size:2);
  Alcotest.(check int) "counted as a bypass" 1
    (Magazine.stats m).Magazine.bypasses;
  Alcotest.(check int) "live unchanged" 4 (Magazine.live m)

let test_magazine_double_free_rejected () =
  let m, _ = make_magazine () in
  let pfn = ok_pfn (Magazine.alloc_pfn m ~size:1) in
  let node = Magazine.find_exn m ~pfn in
  Magazine.free m node;
  Alcotest.check_raises "double free"
    (Invalid_argument "Magazine.free: range already free") (fun () ->
      Magazine.free m node);
  Alcotest.(check int) "live not driven negative" 0 (Magazine.live m);
  let a = ok_pfn (Magazine.alloc_pfn m ~size:1) in
  let b = ok_pfn (Magazine.alloc_pfn m ~size:1) in
  Alcotest.(check bool) "the range is handed out once" true (a <> b)

let test_magazine_spilled_double_free_rejected () =
  (* One-entry magazines and no depot: the third free spills the
     second range back to the Linux base, which deletes its node. *)
  let m, _ = make_magazine ~magazine_size:1 ~depot_max:0 () in
  let nodes =
    List.init 3 (fun _ ->
        Magazine.find_exn m ~pfn:(ok_pfn (Magazine.alloc_pfn m ~size:1)))
  in
  List.iter (Magazine.free m) nodes;
  Alcotest.(check int) "one magazine spilled" 1 (Magazine.stats m).Magazine.flushes;
  Alcotest.check_raises "double free of a spilled range"
    (Invalid_argument "Magazine.free: range already free") (fun () ->
      Magazine.free m (List.nth nodes 1));
  Alcotest.(check int) "live not driven negative" 0 (Magazine.live m);
  let pfns = List.init 3 (fun _ -> ok_pfn (Magazine.alloc_pfn m ~size:1)) in
  Alcotest.(check int) "every range handed out once" 3
    (List.length (List.sort_uniq compare pfns))

let prop_magazine_live_accounting =
  (* Random alloc/free churn: [live] must always equal handed-out minus
     returned, regardless of how ranges shuttle between magazines, the
     depot and the base allocator. *)
  QCheck.Test.make ~name:"magazine live accounting under random churn"
    ~count:30
    QCheck.(list (pair bool (int_bound 3)))
    (fun ops ->
      let m, _ = make_magazine ~magazine_size:2 ~depot_max:1 () in
      let held = ref [] in
      List.iter
        (fun (is_alloc, sz) ->
          if is_alloc || !held = [] then (
            match Magazine.alloc_pfn m ~size:(sz + 1) with
            | -1 -> ()
            | pfn -> held := pfn :: !held)
          else
            match !held with
            | [] -> ()
            | pfn :: rest -> (
                match Magazine.find_exn m ~pfn with
                | node ->
                    Magazine.free m node;
                    held := rest
                | exception Not_found -> failwith "live range not findable"))
        ops;
      Magazine.live m = List.length !held)

let () =
  Alcotest.run "rio_iova"
    [
      ( "rbtree",
        [
          Alcotest.test_case "insert/find" `Quick test_rbtree_insert_find;
          Alcotest.test_case "overlap rejected" `Quick test_rbtree_overlap_rejected;
          Alcotest.test_case "delete" `Quick test_rbtree_delete;
          Alcotest.test_case "double delete detected" `Quick
            test_rbtree_double_delete_detected;
          Alcotest.test_case "neighbours" `Quick test_rbtree_neighbours;
          Alcotest.test_case "inorder iteration" `Quick test_rbtree_inorder_iteration;
          QCheck_alcotest.to_alcotest prop_rbtree_random_ops;
          QCheck_alcotest.to_alcotest prop_rbtree_find_matches_reference;
        ] );
      ( "linux_allocator",
        [
          Alcotest.test_case "top-down" `Quick test_linux_alloc_top_down;
          Alcotest.test_case "find/free" `Quick test_linux_find_free;
          Alcotest.test_case "reuses freed space" `Quick test_linux_reuses_freed_space;
          Alcotest.test_case "exhaustion" `Quick test_linux_exhaustion;
          Alcotest.test_case "mixed-size ring pathology (linear scans)" `Quick
            test_linux_mixed_size_pathology;
          Alcotest.test_case "uniform-size FIFO stays cheap" `Quick
            test_linux_uniform_fifo_stays_cheap;
          Alcotest.test_case "alloc charges cycles" `Quick test_linux_alloc_charges_cycles;
        ] );
      ( "fast_allocator",
        [
          Alcotest.test_case "recycles parked ranges" `Quick test_fast_recycles_parked;
          Alcotest.test_case "parked not findable" `Quick test_fast_parked_not_findable;
          Alcotest.test_case "size classes" `Quick test_fast_size_classes;
          Alcotest.test_case "constant-time steady state" `Quick
            test_fast_constant_time_steady_state;
          Alcotest.test_case "double free detected" `Quick test_fast_double_free_detected;
          Alcotest.test_case "exhaustion" `Quick test_fast_exhaustion;
        ] );
      ( "allocator_interface",
        [
          QCheck_alcotest.to_alcotest (allocator_spec Allocator.Linux);
          QCheck_alcotest.to_alcotest (allocator_spec Allocator.Fast);
          Alcotest.test_case "Table 1 allocation cost bands" `Quick
            test_table1_alloc_cost_bands;
        ] );
      ( "magazine",
        [
          Alcotest.test_case "hit/miss cycle and parked visibility" `Quick
            test_magazine_hit_miss_cycle;
          Alcotest.test_case "depot exchange" `Quick test_magazine_depot_exchange;
          Alcotest.test_case "depot overflow flushes to base" `Quick
            test_magazine_depot_overflow_flushes;
          Alcotest.test_case "large requests bypass" `Quick
            test_magazine_bypass_large;
          Alcotest.test_case "drain returns everything" `Quick test_magazine_drain;
          Alcotest.test_case "wraps the fast allocator" `Quick
            test_magazine_wraps_fast_allocator;
          Alcotest.test_case "size class built on first free" `Quick
            test_magazine_empty_class;
          Alcotest.test_case "exhaustion passes -1 through" `Quick
            test_magazine_exhaustion;
          Alcotest.test_case "double free rejected" `Quick
            test_magazine_double_free_rejected;
          Alcotest.test_case "double free of a spilled range rejected" `Quick
            test_magazine_spilled_double_free_rejected;
          QCheck_alcotest.to_alcotest prop_magazine_live_accounting;
        ] );
    ]
