(* The parallel experiment harness: splittable streams, the domain
   pool, the memo, and end-to-end determinism of the experiment plans
   across --jobs levels. *)

module Srng = Rio_sim.Splittable_rng
module Pool = Rio_exec.Pool
module Memo = Rio_exec.Memo
module Exp = Rio_experiments.Exp

(* The pure SplitMix64 stream the cursor must reproduce: the
   immutable (state, gamma) walk whose [next] returns each value with
   the advanced position. Derivation mirrors the library's, so a
   cursor placed at [Srng.path (Srng.create ~seed) p] draws
   [Pure.draws (Pure.path (Pure.create ~seed) p)]. *)
module Pure = struct
  type t = { state : int64; gamma : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix64 z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let mix_gamma z = Int64.logor (mix64 z) 1L

  let create ~seed =
    let s = Int64.of_int seed in
    { state = mix64 s; gamma = mix_gamma (Int64.add s golden_gamma) }

  let next t =
    let state = Int64.add t.state t.gamma in
    (mix64 state, { t with state })

  let descend t key =
    let k = mix64 (Int64.add (Int64.of_int key) golden_gamma) in
    let h = mix64 (Int64.logxor t.state (Int64.mul t.gamma k)) in
    { state = h; gamma = mix_gamma (Int64.add h t.gamma) }

  let descend_string t s =
    let h = ref 0xCBF29CE484222325L in
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
      s;
    descend t (Int64.to_int !h)

  let path t keys = List.fold_left descend_string t keys

  let draws t n =
    let rec go t n acc =
      if n = 0 then List.rev acc
      else
        let v, t = next t in
        go t (n - 1) (v :: acc)
    in
    go t n []
end

(* [n] draws from a fresh cursor at [t]. *)
let draws t n =
  let c = Srng.cursor t in
  let acc = ref [] in
  for _ = 1 to n do
    acc := Srng.draw c :: !acc
  done;
  List.rev !acc

(* {1 Splittable streams} *)

let test_cursor_matches_pure_stream () =
  List.iter
    (fun seed ->
      let check what got expected =
        Alcotest.(check (list int64)) (Printf.sprintf "%s, seed %d" what seed)
          expected got
      in
      let t = Srng.create ~seed and p = Pure.create ~seed in
      check "create" (draws t 64) (Pure.draws p 64);
      List.iter
        (fun k ->
          check (Printf.sprintf "descend %d" k)
            (draws (Srng.descend t k) 64) (Pure.draws (Pure.descend p k) 64))
        [ 0; 1; 5; -1; max_int ];
      List.iter
        (fun keys ->
          check
            (Printf.sprintf "path [%s]" (String.concat "; " keys))
            (draws (Srng.path t keys) 64) (Pure.draws (Pure.path p keys) 64))
        [ []; [ "serve" ]; [ "serve"; "3" ]; [ "table1"; "strict"; "trial0" ] ];
      (* a reused cursor: [seek] restarts it at another position *)
      let c = Srng.cursor t in
      for _ = 1 to 7 do
        ignore (Srng.draw c : int64)
      done;
      let q = Srng.descend (Srng.descend t 3) 9 in
      Srng.seek c q;
      let got = List.init 16 (fun _ -> Srng.draw c) in
      check "seek" got (Pure.draws (Pure.descend (Pure.descend p 3) 9) 16);
      (* [seek_descend] places it at a child without building one *)
      List.iter
        (fun k ->
          Srng.seek_descend c q k;
          let got = List.init 16 (fun _ -> Srng.draw c) in
          check (Printf.sprintf "seek_descend %d" k) got
            (Pure.draws (Pure.descend (Pure.descend (Pure.descend p 3) 9) k) 16))
        [ 0; 1; 77; -1; max_int ])
    [ 0; 1; 7; 42; 99; -3; max_int ]

let test_same_seed_same_stream () =
  Alcotest.(check (list int64))
    "identical streams"
    (draws (Srng.create ~seed:7) 16)
    (draws (Srng.create ~seed:7) 16)

let test_distinct_seeds_distinct_streams () =
  Alcotest.(check bool)
    "different streams" false
    (draws (Srng.create ~seed:7) 16 = draws (Srng.create ~seed:8) 16)

let test_descend_distinct_keys () =
  let t = Srng.create ~seed:42 in
  let a = draws (Srng.descend t 0) 16 in
  let b = draws (Srng.descend t 1) 16 in
  Alcotest.(check bool) "children differ" false (a = b);
  Alcotest.(check bool)
    "children differ from parent" false
    (a = draws t 16)

let test_descend_equal_keys () =
  let t = Srng.create ~seed:42 in
  Alcotest.(check (list int64))
    "equal keys equal streams"
    (draws (Srng.descend t 5) 16)
    (draws (Srng.descend t 5) 16)

(* the property the harness rests on: a child stream depends only on
   (parent, key), never on which siblings were derived first or whether
   the parent was drawn from in between *)
let test_descend_order_independent () =
  let t = Srng.create ~seed:9 in
  let a_first = draws (Srng.descend t 0) 16 in
  let _b = Srng.descend t 1 in
  ignore (Srng.draw (Srng.cursor t) : int64);
  let a_second = draws (Srng.descend t 0) 16 in
  Alcotest.(check (list int64)) "split order irrelevant" a_first a_second

let test_path_is_folded_descend () =
  let t = Srng.create ~seed:11 in
  Alcotest.(check (list int64))
    "path = descend_string folds"
    (draws (Srng.path t [ "table1"; "strict" ]) 8)
    (draws (Srng.descend_string (Srng.descend_string t "table1") "strict") 8);
  Alcotest.(check bool)
    "sibling paths differ" false
    (draws (Srng.path t [ "table1"; "strict" ]) 8
    = draws (Srng.path t [ "table1"; "defer" ]) 8);
  Alcotest.(check bool)
    "path is hierarchical, not a set" false
    (draws (Srng.path t [ "a"; "b" ]) 8 = draws (Srng.path t [ "b"; "a" ]) 8)

let test_seed_nonnegative () =
  let t = ref (Srng.create ~seed:3) in
  for k = 0 to 999 do
    let child = Srng.descend !t k in
    Alcotest.(check bool) "seed >= 0" true (Srng.seed child >= 0);
    t := Srng.descend child (-k)
  done

let prop_descend_pure =
  QCheck.Test.make ~count:200 ~name:"descend is a pure function of (t, key)"
    QCheck.(pair small_int (small_list small_int))
    (fun (seed, keys) ->
      let t = Srng.create ~seed in
      let walk () = List.fold_left Srng.descend t keys in
      Srng.seed (walk ()) = Srng.seed (walk ()))

let prop_draw_advances =
  QCheck.Test.make ~count:200 ~name:"draw yields a fresh position"
    QCheck.small_int
    (fun seed ->
      let c = Srng.cursor (Srng.create ~seed) in
      let v1 = Srng.draw c in
      let v2 = Srng.draw c in
      (* consecutive draws of one stream almost surely differ; equality
         here would mean the cursor failed to advance *)
      v1 <> v2)

(* {1 Pool} *)

let test_pool_order () =
  List.iter
    (fun jobs ->
      let tasks = Array.init 97 (fun i () -> i * i) in
      Alcotest.(check (list int))
        (Printf.sprintf "order at jobs=%d" jobs)
        (List.init 97 (fun i -> i * i))
        (Array.to_list (Pool.run ~jobs tasks)))
    [ 1; 2; 4; 0 ]

let test_pool_empty_and_single () =
  Alcotest.(check (list int)) "empty" [] (Array.to_list (Pool.run ~jobs:4 [||]));
  Alcotest.(check (list int))
    "single" [ 7 ]
    (Array.to_list (Pool.run ~jobs:4 [| (fun () -> 7) |]))

let test_pool_negative_jobs () =
  Alcotest.check_raises "negative jobs rejected"
    (Invalid_argument "Rio_exec.Pool.run: jobs must be >= 0")
    (fun () -> ignore (Pool.run ~jobs:(-1) [| (fun () -> 0) |]))

exception Boom

let test_pool_exception () =
  List.iter
    (fun jobs ->
      let tasks =
        Array.init 32 (fun i () -> if i = 17 then raise Boom else i)
      in
      Alcotest.check_raises
        (Printf.sprintf "exception surfaces at jobs=%d" jobs)
        Boom
        (fun () -> ignore (Pool.run ~jobs tasks)))
    [ 1; 4 ]

(* {1 Memo} *)

let test_memo_computes_once () =
  let m = Memo.create () in
  let calls = ref 0 in
  let get k =
    Memo.find_or_add m k (fun () ->
        incr calls;
        k * 10)
  in
  Alcotest.(check int) "first" 10 (get 1);
  Alcotest.(check int) "cached" 10 (get 1);
  Alcotest.(check int) "other key" 20 (get 2);
  Alcotest.(check int) "computed once per key" 2 !calls

let test_memo_retry_after_raise () =
  let m = Memo.create () in
  let attempts = ref 0 in
  let f () =
    incr attempts;
    if !attempts = 1 then failwith "flaky" else 99
  in
  (try ignore (Memo.find_or_add m "k" f : int) with Failure _ -> ());
  Alcotest.(check int) "retry succeeds" 99 (Memo.find_or_add m "k" f)

let test_memo_under_pool () =
  let m = Memo.create () in
  let hits =
    Pool.run ~jobs:4
      (Array.init 64 (fun i () ->
           Memo.find_or_add m (i mod 4) (fun () -> i mod 4 * 100)))
  in
  Array.iteri
    (fun i v -> Alcotest.(check int) "shared result" (i mod 4 * 100) v)
    hits

(* {1 End-to-end determinism of the experiment plans} *)

(* The single-plan reference [Exp.run_plans] must match: one pool over
   one plan's cells, then its reduce. *)
let run_plan ?jobs (Exp.Plan { cells; reduce }) = reduce (Pool.run ?jobs cells)

let rendered (plan_fn : ?quick:bool -> ?seed:int -> unit -> Exp.plan) jobs =
  Exp.render (run_plan ~jobs (plan_fn ~quick:true ~seed:42 ()))

let determinism_case name (plan_fn : ?quick:bool -> ?seed:int -> unit -> Exp.plan) =
  Alcotest.test_case (name ^ " byte-identical at jobs 1/4") `Slow (fun () ->
      let seq = rendered plan_fn 1 in
      Alcotest.(check string) "jobs=4" seq (rendered plan_fn 4);
      Alcotest.(check string) "jobs=4 rerun" seq (rendered plan_fn 4))

let test_seed_changes_output () =
  let at seed =
    Exp.render
      (run_plan ~jobs:1 (Rio_experiments.Table1.plan ~quick:true ~seed ()))
  in
  Alcotest.(check string) "same seed reproduces" (at 42) (at 42);
  Alcotest.(check bool) "different seed differs" false (at 42 = at 43)

let test_run_plans_matches_run_plan () =
  (* the flattened multi-plan pool must produce exactly what running
     each plan alone produces *)
  let plans =
    [
      ("table1", Rio_experiments.Table1.plan ~quick:true ~seed:42 ());
      ("iotlb_miss", Rio_experiments.Iotlb_miss.plan ~quick:true ~seed:42 ());
    ]
  in
  let combined = Exp.run_plans ~jobs:4 plans in
  let alone =
    [
      run_plan ~jobs:1 (Rio_experiments.Table1.plan ~quick:true ~seed:42 ());
      run_plan ~jobs:1
        (Rio_experiments.Iotlb_miss.plan ~quick:true ~seed:42 ());
    ]
  in
  List.iter2
    (fun (_, c) a ->
      Alcotest.(check string) "same rendering" (Exp.render a) (Exp.render c))
    combined alone

let () =
  Alcotest.run "rio_exec"
    [
      ( "splittable_rng",
        [
          Alcotest.test_case "same seed, same stream" `Quick
            test_same_seed_same_stream;
          Alcotest.test_case "distinct seeds, distinct streams" `Quick
            test_distinct_seeds_distinct_streams;
          Alcotest.test_case "descend: distinct keys" `Quick
            test_descend_distinct_keys;
          Alcotest.test_case "descend: equal keys" `Quick
            test_descend_equal_keys;
          Alcotest.test_case "descend: split order irrelevant" `Quick
            test_descend_order_independent;
          Alcotest.test_case "path semantics" `Quick test_path_is_folded_descend;
          Alcotest.test_case "seed nonnegative" `Quick test_seed_nonnegative;
          QCheck_alcotest.to_alcotest prop_descend_pure;
          QCheck_alcotest.to_alcotest prop_draw_advances;
          Alcotest.test_case "cursor = pure SplitMix stream" `Quick
            test_cursor_matches_pure_stream;
        ] );
      ( "pool",
        [
          Alcotest.test_case "results in task order" `Quick test_pool_order;
          Alcotest.test_case "empty and single" `Quick
            test_pool_empty_and_single;
          Alcotest.test_case "negative jobs" `Quick test_pool_negative_jobs;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
        ] );
      ( "memo",
        [
          Alcotest.test_case "computes once" `Quick test_memo_computes_once;
          Alcotest.test_case "retry after raise" `Quick
            test_memo_retry_after_raise;
          Alcotest.test_case "shared under pool" `Quick test_memo_under_pool;
        ] );
      ( "determinism",
        [
          determinism_case "table1" Rio_experiments.Table1.plan;
          determinism_case "figure7" Rio_experiments.Figure7.plan;
          determinism_case "interference" Rio_experiments.Interference.plan;
          Alcotest.test_case "seed threads through" `Slow
            test_seed_changes_output;
          Alcotest.test_case "run_plans = run_plan per plan" `Slow
            test_run_plans_matches_run_plan;
        ] );
    ]
