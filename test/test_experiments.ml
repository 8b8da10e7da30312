(* Smoke and consistency tests for the experiment harness
   (rio_experiments): every table/figure runs in quick mode and its
   results respect the paper's qualitative structure. *)

module Mode = Rio_protect.Mode
module Paper = Rio_report.Paper
module Registry = Rio_experiments.Registry
module Figure12 = Rio_experiments.Figure12
module Table2 = Rio_experiments.Table2
module Iotlb_miss = Rio_experiments.Iotlb_miss
module Figure8 = Rio_experiments.Figure8

let test_registry_complete () =
  (* one experiment per evaluated artifact of the paper, plus the
     multi-tenant interference study *)
  Alcotest.(check (list string)) "ids"
    [ "table1"; "figure7"; "figure8"; "figure12"; "table2"; "table3";
      "iotlb_miss"; "prefetchers"; "bonnie"; "ablations"; "interference" ]
    Registry.ids;
  Alcotest.(check bool) "find works" true (Registry.find "table1" <> None);
  Alcotest.(check bool) "unknown" true (Registry.find "table9" = None)

let test_all_experiments_render () =
  List.iter
    (fun id ->
      let plan = Option.get (Registry.find id) in
      let (Rio_experiments.Exp.Plan { cells; reduce }) = plan ~quick:true () in
      let exp = reduce (Array.map (fun cell -> cell ()) cells) in
      Alcotest.(check string) "id matches" id exp.Rio_experiments.Exp.id;
      let rendered = Rio_experiments.Exp.render exp in
      Alcotest.(check bool)
        (Printf.sprintf "%s renders substantively" id)
        true
        (String.length rendered > 200))
    Registry.ids

let test_figure12_structure () =
  let grid = Figure12.compute ~quick:true Paper.Mlx in
  Alcotest.(check int) "seven modes" 7 (List.length grid.Figure12.rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "five benchmarks" 5 (List.length row.Figure12.cells))
    grid.Figure12.rows;
  (* memoized *)
  let grid2 = Figure12.compute ~quick:true Paper.Mlx in
  Alcotest.(check bool) "cached" true (grid == grid2)

let test_figure12_orderings () =
  let grid = Figure12.compute ~quick:true Paper.Mlx in
  let thr mode bench = (Figure12.cell grid mode bench).Figure12.throughput in
  List.iter
    (fun bench ->
      let name = Paper.benchmark_name bench in
      Alcotest.(check bool)
        (name ^ ": riommu beats strict")
        true
        (thr Mode.Riommu bench > thr Mode.Strict bench);
      Alcotest.(check bool)
        (name ^ ": none >= riommu")
        true
        (thr Mode.None_ bench >= thr Mode.Riommu bench *. 0.999))
    Paper.benchmarks

let test_figure12_brcm_line_rate () =
  let grid = Figure12.compute ~quick:true Paper.Brcm in
  let cell mode = Figure12.cell grid mode Paper.Stream in
  Alcotest.(check bool) "strict below line" false (cell Mode.Strict).Figure12.line_limited;
  Alcotest.(check bool) "riommu at line" true (cell Mode.Riommu).Figure12.line_limited;
  (* at line rate CPU is ordered: none < riommu < riommu- *)
  let cpu mode = (cell mode).Figure12.cpu in
  Alcotest.(check bool) "cpu ordering" true
    (cpu Mode.None_ < cpu Mode.Riommu && cpu Mode.Riommu < cpu Mode.Riommu_minus)

let test_table2_headline_ratios () =
  (* the paper's headline: rIOMMU 2.9-7.56x over the strict modes on
     mlx/stream, and within 0.77-1.00x of none *)
  let thr, _ =
    Table2.ratios ~quick:true Paper.Mlx Paper.Stream ~riommu:Mode.Riommu
      ~vs:Mode.Strict
  in
  Alcotest.(check bool)
    (Printf.sprintf "riommu/strict = %.2f in [3, 12]" thr)
    true (thr >= 3. && thr <= 12.);
  let vs_none, _ =
    Table2.ratios ~quick:true Paper.Mlx Paper.Stream ~riommu:Mode.Riommu
      ~vs:Mode.None_
  in
  Alcotest.(check bool)
    (Printf.sprintf "riommu/none = %.2f in [0.7, 1.0]" vs_none)
    true
    (vs_none >= 0.7 && vs_none <= 1.0)

let test_figure8_monotone () =
  let pts = Figure8.sweep ~quick:true () in
  let rec decreasing = function
    | a :: (b :: _ as rest) ->
        a.Figure8.model_gbps >= b.Figure8.model_gbps && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "model monotonically decreasing in C" true (decreasing pts);
  List.iter
    (fun p ->
      (* Gbps x C is the constant 1500 x 8 x S *)
      let product = p.Figure8.model_gbps *. p.Figure8.cycles in
      Alcotest.(check bool) "hyperbola" true
        (abs_float (product -. (1500. *. 8. *. 3.1)) < 1.))
    pts

let test_iotlb_miss_penalty_band () =
  let r = Iotlb_miss.measure ~pool:500 ~accesses:2_000 () in
  Alcotest.(check bool)
    (Printf.sprintf "penalty %.0f in [1200, 1700] (paper 1532)" r.Iotlb_miss.penalty_cycles)
    true
    (r.Iotlb_miss.penalty_cycles >= 1200. && r.Iotlb_miss.penalty_cycles <= 1700.);
  Alcotest.(check bool) "hit is cheap" true (r.Iotlb_miss.hit_cycles < 100.)

let () =
  Alcotest.run "rio_experiments"
    [
      ( "registry",
        [ Alcotest.test_case "complete" `Quick test_registry_complete ] );
      ( "smoke",
        [ Alcotest.test_case "all experiments render" `Slow test_all_experiments_render ] );
      ( "figure12",
        [
          Alcotest.test_case "structure" `Quick test_figure12_structure;
          Alcotest.test_case "orderings" `Quick test_figure12_orderings;
          Alcotest.test_case "brcm line rate" `Quick test_figure12_brcm_line_rate;
        ] );
      ( "table2",
        [ Alcotest.test_case "headline ratios" `Quick test_table2_headline_ratios ] );
      ( "figure8",
        [ Alcotest.test_case "model shape" `Quick test_figure8_monotone ] );
      ( "iotlb_miss",
        [ Alcotest.test_case "penalty band" `Quick test_iotlb_miss_penalty_band ] );
    ]
