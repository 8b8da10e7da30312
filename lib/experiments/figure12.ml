module Mode = Rio_protect.Mode
module Paper = Rio_report.Paper
module Table = Rio_report.Table
module Cost_model = Rio_sim.Cost_model
module Netperf = Rio_workload.Netperf
module Apache = Rio_workload.Apache
module Memcached = Rio_workload.Memcached
module Server_model = Rio_workload.Server_model
module Nic_profiles = Rio_device.Nic_profiles

type cell = { throughput : float; cpu : float; line_limited : bool }

type mode_row = {
  mode : Mode.t;
  protection_per_packet : float;
  cells : (Paper.benchmark * cell) list;
}

type grid = { nic : Paper.nic; rows : mode_row list }

let profile_of = function Paper.Mlx -> Nic_profiles.mlx | Paper.Brcm -> Nic_profiles.brcm

let mode_row ~quick ~seed ~profile mode =
  let packets = if quick then 6_000 else 50_000 in
  let warmup = if quick then 10_000 else 140_000 in
  let s =
    Netperf.stream ~packets ~warmup ~seed:(Seeds.netperf_stream ~seed) ~mode
      ~profile ()
  in
  let r =
    Netperf.rr
      ~transactions:(if quick then 500 else 5_000)
      ~seed:(Seeds.netperf_rr ~seed) ~mode ~profile ()
  in
  let cost = Cost_model.default in
  let server run =
    let (x : Server_model.result) = run in
    {
      throughput = x.Server_model.requests_per_sec;
      cpu = x.Server_model.cpu;
      line_limited = x.Server_model.line_limited;
    }
  in
  let prot = s.Netperf.protection_per_packet in
  {
    mode;
    protection_per_packet = prot;
    cells =
      [
        ( Paper.Stream,
          {
            throughput = s.Netperf.gbps;
            cpu = s.Netperf.cpu;
            line_limited = s.Netperf.line_limited;
          } );
        ( Paper.Rr,
          {
            throughput = r.Netperf.transactions_per_sec;
            cpu = r.Netperf.cpu;
            line_limited = false;
          } );
        ( Paper.Apache_1m,
          server (Apache.run Apache.MB1 ~profile ~protection_per_packet:prot ~cost) );
        ( Paper.Apache_1k,
          server (Apache.run Apache.KB1 ~profile ~protection_per_packet:prot ~cost) );
        ( Paper.Memcached,
          server (Memcached.run ~profile ~protection_per_packet:prot ~cost) );
      ];
  }

(* Rows are memoized at (quick, seed, nic, mode) granularity so this
   experiment's parallel cells, table2's cells and the assembled grids
   all share one measurement per point; the grid-level memo on top
   keeps [compute] physically cached (and cheap for table2's reduce,
   which runs after the pool has already filled the row memo). Both
   memos are domain-safe. *)
let row_cache : (bool * int * Paper.nic * Mode.t, mode_row) Rio_exec.Memo.t =
  Rio_exec.Memo.create ~size:32 ()

let cached_mode_row ~quick ~seed nic mode =
  Rio_exec.Memo.find_or_add row_cache (quick, seed, nic, mode) (fun () ->
      mode_row ~quick ~seed ~profile:(profile_of nic) mode)

let grid_cache : (bool * int * Paper.nic, grid) Rio_exec.Memo.t =
  Rio_exec.Memo.create ~size:4 ()

let compute ?(quick = false) ?(seed = 42) nic =
  Rio_exec.Memo.find_or_add grid_cache (quick, seed, nic) (fun () ->
      { nic; rows = List.map (cached_mode_row ~quick ~seed nic) Mode.evaluated })

let cell grid mode bench =
  let row = List.find (fun r -> r.mode = mode) grid.rows in
  List.assoc bench row.cells

let bench_unit = function
  | Paper.Stream -> "Gbps"
  | Paper.Rr -> "tps"
  | Paper.Apache_1m | Paper.Apache_1k -> "req/s"
  | Paper.Memcached -> "ops/s"

let grid_table grid =
  let headers =
    "mode"
    :: List.concat_map
         (fun b ->
           [
             Printf.sprintf "%s (%s)" (Paper.benchmark_name b) (bench_unit b);
             "cpu";
           ])
         Paper.benchmarks
  in
  let t = Table.make ~headers in
  List.iter
    (fun row ->
      let cells =
        List.concat_map
          (fun b ->
            let c = List.assoc b row.cells in
            let v =
              if c.throughput >= 1000. then
                Printf.sprintf "%.0f%s" c.throughput
                  (if c.line_limited then "*" else "")
              else
                Printf.sprintf "%.2f%s" c.throughput
                  (if c.line_limited then "*" else "")
            in
            [ v; Table.cell_pct c.cpu ])
          Paper.benchmarks
      in
      Table.add_row t (Mode.name row.mode :: cells))
    grid.rows;
  Table.render t

let stream_chart grid =
  Rio_report.Chart.hbar ~unit_label:" Gbps"
    (List.map
       (fun row ->
         ( Mode.name row.mode,
           (List.assoc Paper.Stream row.cells).throughput ))
       grid.rows)

let reduce ~quick ~seed () =
  let mlx = compute ~quick ~seed Paper.Mlx in
  let brcm = compute ~quick ~seed Paper.Brcm in
  let body =
    Printf.sprintf
      "-- mlx (ConnectX3 40GbE) --\n%s\n%s\n-- brcm (BCM57810 10GbE) --\n%s\n%s"
      (grid_table mlx) (stream_chart mlx) (grid_table brcm) (stream_chart brcm)
  in
  {
    Exp.id = "figure12";
    title = "Performance of the IOMMU modes (Mellanox top, Broadcom bottom)";
    body;
    notes =
      [
        "'*' marks line-rate-limited cells, where CPU is the metric of interest";
        "normalized ratios against the paper's Table 2 are printed by the table2 \
         experiment";
      ];
  }

(* The (nic, mode) grid as 14 independent row cells; the reduce then
   assembles both grids from the row memo the cells just filled. *)
let row_cells ~quick ~seed =
  List.concat_map
    (fun nic ->
      List.map
        (fun mode () -> cached_mode_row ~quick ~seed nic mode)
        Mode.evaluated)
    [ Paper.Mlx; Paper.Brcm ]

let plan ?(quick = false) ?(seed = 42) () =
  Exp.plan_of_list (row_cells ~quick ~seed)
    ~reduce:(fun (_ : mode_row list) -> reduce ~quick ~seed ())
