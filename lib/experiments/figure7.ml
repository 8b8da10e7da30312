module Mode = Rio_protect.Mode
module Paper = Rio_report.Paper
module Table = Rio_report.Table
module Compare = Rio_report.Compare
module Breakdown = Rio_sim.Breakdown
module Netperf = Rio_workload.Netperf
module Nic_profiles = Rio_device.Nic_profiles

(* Per-packet component totals: per-call means scaled by calls per
   measured packet. *)
let per_packet result comp =
  if result.Netperf.map_calls = 0 then 0.
  else begin
    let packets = float_of_int result.Netperf.packets in
    let total comps calls =
      match List.assoc_opt comp comps with
      | Some mean -> mean *. float_of_int calls
      | None -> 0.
    in
    (total result.Netperf.map_components result.Netperf.map_calls
    +. total result.Netperf.unmap_components result.Netperf.unmap_calls)
    /. packets
  end

let reduce results =
  let t =
    Table.make
      ~headers:
        [
          "mode"; "iotlb inv"; "page table"; "iova (de)alloc"; "other";
          "C total"; "paper C"; "vs none";
        ]
  in
  List.iter
    (fun (mode, r) ->
      let inv = per_packet r Breakdown.Iotlb_inv in
      let pt = per_packet r Breakdown.Page_table in
      let iova =
        per_packet r Breakdown.Iova_alloc
        +. per_packet r Breakdown.Iova_find
        +. per_packet r Breakdown.Iova_free
      in
      let c = r.Netperf.cycles_per_packet in
      let other = c -. inv -. pt -. iova in
      let paper_c = List.assoc mode Paper.figure7_cycles in
      Table.add_row t
        [
          Mode.name mode;
          Table.cell_f ~decimals:0 inv;
          Table.cell_f ~decimals:0 pt;
          Table.cell_f ~decimals:0 iova;
          Table.cell_f ~decimals:0 other;
          Table.cell_f ~decimals:0 c;
          Printf.sprintf "%.0f %s" paper_c
            (Compare.verdict_symbol
               (Compare.verdict ~tolerance:0.35 ~paper:paper_c ~measured:c ()));
          Printf.sprintf "%.2fx" (c /. float_of_int Paper.c_none_mlx);
        ])
    results;
  let chart =
    Rio_report.Chart.stacked ~segments:[ "iotlb inv"; "page table"; "iova"; "other" ]
      (List.map
         (fun (mode, r) ->
           let inv = per_packet r Breakdown.Iotlb_inv in
           let pt = per_packet r Breakdown.Page_table in
           let iova =
             per_packet r Breakdown.Iova_alloc
             +. per_packet r Breakdown.Iova_find
             +. per_packet r Breakdown.Iova_free
           in
           let other = r.Netperf.cycles_per_packet -. inv -. pt -. iova in
           (Mode.name mode, [ inv; pt; iova; other ]))
         results)
  in
  {
    Exp.id = "figure7";
    title = "CPU cycles for processing one packet (mlx), stacked by component";
    body = Table.render t ^ "\n" ^ chart;
    notes =
      [
        Printf.sprintf "C_none = %d cycles is the calibrated per-packet baseline"
          Paper.c_none_mlx;
        "paper C values are derived from the Table 2 mlx/stream ratios via the \
         1/C throughput model";
      ];
  }

let plan ?(quick = false) ?(seed = 42) () =
  let profile = Nic_profiles.mlx in
  let packets = if quick then 6_000 else 50_000 in
  let warmup = if quick then 10_000 else 140_000 in
  let nseed = Seeds.netperf_stream ~seed in
  Exp.plan_of_list
    (List.map
       (fun mode () ->
         (mode, Netperf.stream ~packets ~warmup ~seed:nseed ~mode ~profile ()))
       Mode.evaluated)
    ~reduce
