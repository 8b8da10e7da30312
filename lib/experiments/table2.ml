module Mode = Rio_protect.Mode
module Paper = Rio_report.Paper
module Table = Rio_report.Table
module Compare = Rio_report.Compare

let vs_modes = [ Mode.Strict; Mode.Strict_plus; Mode.Defer; Mode.Defer_plus; Mode.None_ ]

let ratios ?quick ?seed nic bench ~riommu ~vs =
  let grid = Figure12.compute ?quick ?seed nic in
  let r = Figure12.cell grid riommu bench in
  let v = Figure12.cell grid vs bench in
  (r.Figure12.throughput /. v.Figure12.throughput, r.Figure12.cpu /. v.Figure12.cpu)

let block ?quick ?seed nic =
  let t =
    Table.make
      ~headers:
        ("benchmark" :: "riommu" :: List.map (fun m -> "vs " ^ Mode.name m) vs_modes)
  in
  List.iter
    (fun bench ->
      List.iter
        (fun riommu ->
          let cells =
            List.map
              (fun vs ->
                let thr, _ = ratios ?quick ?seed nic bench ~riommu ~vs in
                match Paper.table2_throughput nic bench ~riommu ~vs with
                | Some paper -> Compare.cell ~paper ~measured:thr ()
                | None -> Table.cell_ratio thr)
              vs_modes
          in
          Table.add_row t
            (Paper.benchmark_name bench :: Mode.name riommu :: cells))
        [ Mode.Riommu_minus; Mode.Riommu ];
      Table.add_separator t)
    Paper.benchmarks;
  Table.render t

let cpu_block ?quick ?seed nic =
  let t =
    Table.make
      ~headers:
        ("benchmark" :: "riommu" :: List.map (fun m -> "vs " ^ Mode.name m) vs_modes)
  in
  List.iter
    (fun bench ->
      List.iter
        (fun riommu ->
          let cells =
            List.map
              (fun vs ->
                let _, cpu = ratios ?quick ?seed nic bench ~riommu ~vs in
                match Paper.table2_cpu nic bench ~riommu ~vs with
                | Some paper -> Compare.cell ~paper ~measured:cpu ()
                | None -> Table.cell_ratio cpu)
              vs_modes
          in
          Table.add_row t
            (Paper.benchmark_name bench :: Mode.name riommu :: cells))
        [ Mode.Riommu_minus; Mode.Riommu ];
      Table.add_separator t)
    Paper.benchmarks;
  Table.render t

let reduce ~quick ~seed () =
  let body =
    Printf.sprintf
      "cells are paper/measured with ok (<=25%% off), ~ (<=50%%), !! (beyond)\n\n\
       -- mlx throughput ratios --\n%s\n-- mlx cpu ratios --\n%s\n\
       -- brcm throughput ratios --\n%s\n-- brcm cpu ratios --\n%s"
      (block ~quick ~seed Paper.Mlx) (cpu_block ~quick ~seed Paper.Mlx)
      (block ~quick ~seed Paper.Brcm) (cpu_block ~quick ~seed Paper.Brcm)
  in
  {
    Exp.id = "table2";
    title = "Relative (normalized) performance vs the paper's Table 2";
    body;
    notes = [];
  }

let plan ?(quick = false) ?(seed = 42) () =
  (* the cells are figure12's 14 memoized (NIC, mode) rows - running
     table2 alone measures them, running it after figure12 (or beside
     it in one pool) reuses them; the reduce only computes ratios *)
  Exp.plan_of_list
    (Figure12.row_cells ~quick ~seed)
    ~reduce:(fun (_ : Figure12.mode_row list) -> reduce ~quick ~seed ())
