module Mode = Rio_protect.Mode
module Paper = Rio_report.Paper
module Table = Rio_report.Table
module Compare = Rio_report.Compare
module Breakdown = Rio_sim.Breakdown
module Netperf = Rio_workload.Netperf
module Nic_profiles = Rio_device.Nic_profiles

let modes = [ Mode.Strict; Mode.Strict_plus; Mode.Defer; Mode.Defer_plus ]

let measure ~quick ~seed mode =
  let packets = if quick then 6_000 else 50_000 in
  let warmup = if quick then 10_000 else 140_000 in
  Netperf.stream ~packets ~warmup ~seed ~mode ~profile:Nic_profiles.mlx ()

let section ~results ~map components =
  let t =
    Table.make ~headers:("component" :: List.map Mode.name modes)
  in
  let mean_of result comp =
    let comps =
      if map then result.Netperf.map_components else result.Netperf.unmap_components
    in
    match List.assoc_opt comp comps with Some v -> v | None -> 0.
  in
  List.iter
    (fun comp ->
      let cells =
        List.map
          (fun mode ->
            let result = List.assoc mode results in
            let measured = mean_of result comp in
            match Paper.table1_cell ~map mode comp with
            | Some paper ->
                Compare.cell ~tolerance:0.5 ~paper:(float_of_int paper) ~measured ()
            | None -> Table.cell_f ~decimals:0 measured)
          modes
      in
      Table.add_row t (Breakdown.component_name comp :: cells))
    components;
  (* sum row *)
  let sums =
    List.map
      (fun mode ->
        let result = List.assoc mode results in
        let total =
          List.fold_left (fun acc c -> acc +. mean_of result c) 0. components
        in
        Table.cell_f ~decimals:0 total)
      modes
  in
  Table.add_separator t;
  Table.add_row t ("sum" :: sums);
  Table.render t

let reduce results =
  let map_components = [ Breakdown.Iova_alloc; Breakdown.Page_table; Breakdown.Other ] in
  let unmap_components =
    [
      Breakdown.Iova_find;
      Breakdown.Iova_free;
      Breakdown.Page_table;
      Breakdown.Iotlb_inv;
      Breakdown.Other;
    ]
  in
  let body =
    Printf.sprintf
      "cells are paper/measured cycles (ok within 50%%)\n\n-- map --\n%s\n-- unmap --\n%s"
      (section ~results ~map:true map_components)
      (section ~results ~map:false unmap_components)
  in
  {
    Exp.id = "table1";
    title = "Cycle breakdown of the IOMMU driver's (un)map functions";
    body;
    notes =
      [
        "strict-mode IOVA allocation is the emergent long-term allocator pathology; \
         its equilibrium depends on run length and live population (see EXPERIMENTS.md)";
      ];
  }

let plan ?(quick = false) ?(seed = 42) () =
  (* one cell per protection mode; all cells share the derived netperf
     workload stream (paired comparison across modes) *)
  let nseed = Seeds.netperf_stream ~seed in
  Exp.plan_of_list
    (List.map (fun mode () -> (mode, measure ~quick ~seed:nseed mode)) modes)
    ~reduce
