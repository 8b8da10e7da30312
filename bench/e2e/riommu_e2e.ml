(* riommu-e2e: the end-to-end benchmark of the translation service.

     riommu_e2e.exe [--seed N] [--workload NAME]... [--seconds S]
                    [--trace [0|1]] [--trace-out FILE] [--json FILE] [--smoke]

   Four workloads (README.md says why each): three closed loops over a
   Unix-domain socket against the shipped riommu-serve --listen, and the
   simulated engine as the control that no transport change may move.
   Every run does at least 5 trials per workload, round-robin across
   workloads, and reports each metric as the median over trials with
   its quartiles; with --seconds S it keeps adding rounds until S
   seconds of trials have run.

   --trace runs the traced measurement instead: live trials alternate
   between untraced servers and servers reporting their GC at exit,
   then the traced replay (replay.ml) times each layer in-process and
   the cost ledger splits server CPU per op into layer self times plus
   the transport residual.

   The last stdout line is one JSON object: {"correct", "attempted",
   "failed", "metrics"}, the metrics being the end-to-end set, or the
   per-layer set under --trace. With several workloads each metric name
   is prefixed "WORKLOAD/". Exit 1 if any correctness check failed, 2
   on a usage error. Needs riommu-serve on PATH. *)

type shape = Socket of Gen.spec * int (* replay requests per conn *) | Sim of float

type workload = { name : string; shape : shape }

let workloads ~smoke =
  let sock kind ~batch ~pages ~requests ~smoke_requests ~replay =
    let requests = if smoke then smoke_requests else requests in
    Socket ({ Gen.kind; batch; pages; requests }, min requests replay)
  in
  [
    {
      name = "rpc-b1";
      shape =
        sock Gen.Translate ~batch:1 ~pages:64 ~requests:100_000 ~smoke_requests:200
          ~replay:10_000;
    };
    {
      name = "translate-b64";
      shape =
        sock Gen.Translate ~batch:64 ~pages:1024 ~requests:2_500_000
          ~smoke_requests:2048 ~replay:320_000;
    };
    {
      name = "ring-churn";
      shape =
        sock Gen.Ring ~batch:64 ~pages:64 ~requests:3_500_000 ~smoke_requests:2048
          ~replay:160_000;
    };
    { name = "sim-serve"; shape = Sim (if smoke then 0.01 else 1.0) };
  ]

(* MD5 of riommu-serve's stdout summary for sim-serve at seed 42 (one
   simulated second). The summary is a pure function of the simulated
   configuration; a change that alters it must update this. *)
let sim_digest_seed = 42
let sim_digest = "a7ae68fdabc05da0deee9a3b21234dc9"

(* ---- metric catalogue (names and units as in BENCHMARK.json) ---- *)

let e2e_metrics =
  [
    ("throughput_ops_s", "ops/s");
    ("latency_p50_us", "us");
    ("latency_p99_us", "us");
    ("server_cpu_ns_per_op", "ns");
    ("setup_s", "s");
    ("server_peak_rss_mib", "MiB");
  ]

let layer_metrics =
  [
    ("transport.residual_ns", "ns");
    ("loadgen.syscalls_per_op", "count");
    ("loadgen.cpu_ns_per_op", "ns");
    ("wire.encode_request_ns", "ns");
    ("wire.decode_response_ns", "ns");
    ("conn.next_ns", "ns");
    ("dispatch.enqueue_ns", "ns");
    ("dispatch.flush_self_ns", "ns");
    ("shard.translate_ns", "ns");
    ("shard.map_ns", "ns");
    ("shard.unmap_ns", "ns");
    ("shard.iotlb_hit_ratio", "fraction");
    ("shard.iotlb_lookups", "count");
    ("dispatch.flush_cells_ns", "ns");
    ("spsc.push_ns", "ns");
    ("executor.step_ns", "ns");
    ("spsc.pop_ns", "ns");
    ("dispatch.complete_ns", "ns");
    ("dispatch.realized_batch", "count");
    ("model.translate_cycles_p50", "cycles");
    ("model.map_cycles_p50", "cycles");
    ("model.unmap_cycles_p50", "cycles");
    ("server.gc.minor_words_per_op", "words");
    ("server.gc.major_collections", "count");
    ("conn.words_per_op", "words");
    ("dispatch.words_per_op", "words");
    ("shard.words_per_op", "words");
    ("trace.overhead_pct", "%");
  ]

(* ---- statistics ---- *)

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(data, n=4), so the numbers printed here are the
   ones a reader recomputes from the per-trial values. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort compare d;
  let ld = Array.length d in
  if ld = 0 then (0., 0., 0.)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((d.(j - 1) *. (4. -. delta)) +. (d.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* ---- environment ---- *)

let nproc () =
  let count_ranges s =
    List.fold_left
      (fun n r ->
        match String.split_on_char '-' (String.trim r) with
        | [ a ] when a <> "" ->
            ignore (int_of_string a : int);
            n + 1
        | [ a; b ] -> n + int_of_string b - int_of_string a + 1
        | _ -> n)
      0 (String.split_on_char ',' s)
  in
  match Proc.read_file "/proc/self/status" with
  | exception Sys_error _ -> Rio_exec.Domains.cpu_count ()
  | s -> (
      match
        List.find_opt
          (String.starts_with ~prefix:"Cpus_allowed_list:")
          (String.split_on_char '\n' s)
      with
      | Some l -> (
          try count_ranges (String.sub l 18 (String.length l - 18))
          with Failure _ -> Rio_exec.Domains.cpu_count ())
      | None -> Rio_exec.Domains.cpu_count ())

let transport = "unix socket, same host"

(* ---- command line ---- *)

type opts = {
  seed : int;
  names : string list;
  seconds : float;
  trace : bool;
  trace_out : string option;
  json : string option;
  smoke : bool;
}

let usage () =
  prerr_endline
    "usage: riommu_e2e.exe [--seed N] [--workload NAME]... [--seconds S] \
     [--trace [0|1]] [--trace-out FILE] [--json FILE] [--smoke]";
  exit 2

let parse argv =
  let int_arg f v = match f v with Some n -> n | None -> usage () in
  let rec go o = function
    | [] -> o
    | "--seed" :: v :: rest -> go { o with seed = int_arg int_of_string_opt v } rest
    | "--workload" :: v :: rest -> go { o with names = o.names @ [ v ] } rest
    | "--seconds" :: v :: rest ->
        go { o with seconds = int_arg float_of_string_opt v } rest
    | "--trace" :: "1" :: rest -> go { o with trace = true } rest
    | "--trace" :: "0" :: rest -> go { o with trace = false } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--trace-out" :: v :: rest -> go { o with trace_out = Some v } rest
    | "--json" :: v :: rest -> go { o with json = Some v } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | a :: _ ->
        Printf.eprintf "riommu_e2e: unknown or incomplete argument %S\n" a;
        usage ()
  in
  go
    { seed = 42; names = []; seconds = 0.; trace = false; trace_out = None; json = None; smoke = false }
    argv

(* ---- running trials ---- *)

type runs = {
  w : workload;
  mutable plain : Live.trial list;  (* untraced, newest first *)
  mutable traced : Live.trial list;
}

let trials x = x.plain @ x.traced
let workdir = "_e2e"

let trial w ~seed ~traced =
  match w.shape with
  | Socket (spec, _) -> Live.socket_trial ~workdir ~spec ~seed ~traced
  | Sim duration -> Live.sim_trial ~workdir ~seed ~duration ~traced

(* Round-robin rounds of trials: at least [min_rounds], then more while
   fewer than [seconds] have passed. A failed trial ends the run after
   its round, so a hung server costs one trial timeout, not five. *)
let rounds runs ~seed ~min_rounds ~seconds ~traced =
  let t0 = Unix.gettimeofday () in
  let failing () =
    List.exists (fun x -> List.exists (fun (t : Live.trial) -> t.problems <> []) (trials x)) runs
  in
  let rec go r =
    if (not (failing ())) && (r < min_rounds || Unix.gettimeofday () -. t0 < seconds) then begin
      List.iter
        (fun x ->
          x.plain <- trial x.w ~seed ~traced:false :: x.plain;
          if traced then x.traced <- trial x.w ~seed ~traced:true :: x.traced)
        runs;
      go (r + 1)
    end
  in
  go 0

(* sim-serve: every trial's summary identical, and equal to the
   committed digest at its seed. *)
let sim_problems x ~seed ~smoke =
  match (x.w.shape, trials x) with
  | Sim _, t :: rest ->
      let same = List.for_all (fun (u : Live.trial) -> u.digest = t.digest) rest in
      (if same then [] else [ "sim-serve summaries differ between trials" ])
      @
      if smoke || seed <> sim_digest_seed || t.digest = sim_digest then []
      else [ Printf.sprintf "sim-serve summary digest %s, expected %s" t.digest sim_digest ]
  | _ -> []

(* ---- metric values ---- *)

type value = { v : float; q1 : float; q3 : float; per_trial : float list; samples : int list }

(* The median over trials, with quartiles and each trial's value and
   sample count (latency samples, or ops for sim-serve). *)
let summarize trials pick =
  let xs = List.rev_map pick trials in
  let q1, v, q3 = quartiles xs in
  { v; q1; q3; per_trial = xs; samples = List.rev_map (fun (t : Live.trial) -> t.samples) trials }

let e2e_values x =
  let s pick = summarize x.plain pick in
  [
    ("throughput_ops_s", s (fun t -> t.throughput));
    ("latency_p50_us", s (fun t -> t.p50_us));
    ("latency_p99_us", s (fun t -> t.p99_us));
    ("server_cpu_ns_per_op", s (fun t -> t.cpu_ns_per_op));
    ("setup_s", s (fun t -> t.setup_s));
    ("server_peak_rss_mib", s (fun t -> t.rss_mib));
  ]

let attempted x = List.fold_left (fun a (t : Live.trial) -> a + t.attempted) 0 (trials x)
let failed x = List.fold_left (fun a (t : Live.trial) -> a + t.failed) 0 (trials x)
let med_of trials pick =
  let _, m, _ = quartiles (List.map pick trials) in
  m

type layers = {
  metrics : (string * float) list;
  ledger : (float * (string * float) list) option;
      (** server_cpu_ns_per_op and the terms that add up to it *)
  spans : Replay.tracer option;
  replay_problems : string list;
}

(* Per-layer metrics and the ledger row of one workload. *)
let layer_values x ~seed =
  let cpu_plain = med_of x.plain (fun t -> t.Live.cpu_ns_per_op) in
  let cpu_traced = med_of x.traced (fun t -> t.Live.cpu_ns_per_op) in
  let last = List.hd (trials x) in
  let live =
    [
      ("loadgen.syscalls_per_op", med_of x.plain (fun t -> t.Live.syscalls_per_op));
      ("loadgen.cpu_ns_per_op", med_of x.plain (fun t -> t.Live.client_cpu_ns_per_op));
      ("dispatch.realized_batch", med_of (trials x) (fun t -> t.Live.realized_batch));
      ("model.map_cycles_p50", float_of_int last.Live.model_p50.(0));
      ("model.unmap_cycles_p50", float_of_int last.Live.model_p50.(1));
      ("model.translate_cycles_p50", float_of_int last.Live.model_p50.(2));
      ("server.gc.minor_words_per_op", med_of x.traced (fun t -> t.Live.minor_words_per_op));
      ("server.gc.major_collections", med_of x.traced (fun t -> t.Live.major_collections));
      ( "trace.overhead_pct",
        if cpu_plain > 0. then (cpu_traced -. cpu_plain) /. cpu_plain *. 100. else 0. );
    ]
  in
  match x.w.shape with
  | Socket (spec, replay) ->
      let r = Replay.run ~spec:{ spec with Gen.requests = replay } ~seed in
      let inline = List.fold_left (fun s (_, v) -> s +. v) 0. r.Replay.ledger in
      let residual = cpu_plain -. inline in
      {
        metrics =
          ("transport.residual_ns", residual)
          :: ("shard.iotlb_lookups", float_of_int r.Replay.lookups)
          :: (live @ r.Replay.metrics);
        ledger = Some (cpu_plain, r.Replay.ledger @ [ ("transport.residual", residual) ]);
        spans = Some r.Replay.spans;
        replay_problems = r.Replay.problems;
      }
  | Sim duration ->
      let hits, misses = Replay.sim_iotlb ~seed ~duration in
      let lookups = hits + misses in
      let measured =
        ("shard.iotlb_hit_ratio", if lookups > 0 then float_of_int hits /. float_of_int lookups else 0.)
        :: ("shard.iotlb_lookups", float_of_int lookups)
        :: live
      in
      (* no net layer is on this workload's path, and the shard runs
         inside the engine, where the harness has no span: those
         layers read 0 *)
      let absent =
        List.filter_map
          (fun (n, _) -> if List.mem_assoc n measured then None else Some (n, 0.))
          layer_metrics
      in
      { metrics = measured @ absent; ledger = None; spans = None; replay_problems = [] }

type result = {
  x : runs;
  e2e : (string * value) list;
  layers : layers option;
  problems : string list;
}

(* ---- output ---- *)

(* JSON numbers with every digit measured. *)
let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"
let error_rate r = if attempted r.x > 0 then float_of_int (failed r.x) /. float_of_int (attempted r.x) else 0.

let print_report o results =
  Printf.printf
    "riommu-e2e: seed %d, %s\n  environment: nproc %d, OCaml %s, transport %s (no real link \
     crossed), poll backend %s\n  load: 1 client thread, %d connections, 1 pipelined batch in \
     flight each; first 5%% of each connection's requests are warm-up\n"
    o.seed
    (if o.smoke then "smoke" else if o.trace then "traced run" else "untraced run")
    (nproc ()) Sys.ocaml_version transport
    (if Rio_serve_net.Readiness.poll_available then "present" else "absent")
    Topo.conns;
  List.iter
    (fun r ->
      Printf.printf "\n%s  trials %d%s  attempted %d  failed %d  error_rate %g  %s\n" r.x.w.name
        (List.length r.x.plain)
        (if r.x.traced = [] then "" else Printf.sprintf " + %d traced" (List.length r.x.traced))
        (attempted r.x) (failed r.x) (error_rate r)
        (if r.problems = [] then "correct" else "INCORRECT");
      List.iter (fun p -> Printf.printf "  problem: %s\n" p) r.problems;
      List.iter
        (fun (name, unit) ->
          let m = List.assoc name r.e2e in
          Printf.printf "  %-24s %12.6g %-6s q1 %-10.6g q3 %-10.6g n=%d (samples/trial %s)\n" name
            m.v unit m.q1 m.q3 (List.length m.per_trial)
            (String.concat "," (List.map string_of_int m.samples)))
        e2e_metrics;
      match r.layers with
      | None -> ()
      | Some l -> (
          List.iter
            (fun (name, unit) ->
              Printf.printf "  %-30s %12.6g %s\n" name (List.assoc name l.metrics) unit)
            layer_metrics;
          match l.ledger with
          | Some (cpu, terms) ->
              Printf.printf "  ledger %s: server_cpu_ns_per_op %.1f =%s\n" r.x.w.name cpu
                (String.concat " +" (List.map (fun (n, v) -> Printf.sprintf " %s %.1f" n v) terms))
          | None -> ()))
    results

(* riommu-e2e/1 *)
let write_json o results path =
  let b = Buffer.create 8192 in
  Printf.bprintf b
    "{\n  \"schema\": \"riommu-e2e/1\",\n  \"seed\": %d, \"smoke\": %b, \"traced\": %b,\n\
    \  \"environment\": { \"nproc\": %d, \"ocaml\": %S, \"transport\": %S, \"poll_backend\": %b, \
     \"client_threads\": 1, \"connections\": %d },\n\
    \  \"workloads\": [\n"
    o.seed o.smoke o.trace (nproc ()) Sys.ocaml_version transport
    Rio_serve_net.Readiness.poll_available Topo.conns;
  let last_of xs i = if i < List.length xs - 1 then "," else "" in
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    { \"name\": %S, \"trials\": %d, \"traced_trials\": %d, \"correct\": %b, \
         \"attempted\": %d, \"failed\": %d, \"error_rate\": %s,\n\
        \      \"problems\": %s,\n      \"metrics\": {\n"
        r.x.w.name (List.length r.x.plain) (List.length r.x.traced) (r.problems = [])
        (attempted r.x) (failed r.x) (num (error_rate r))
        (json_list (Printf.sprintf "%S") r.problems);
      List.iteri
        (fun k (name, unit) ->
          let m = List.assoc name r.e2e in
          Printf.bprintf b
            "        %S: { \"unit\": %S, \"median\": %s, \"q1\": %s, \"q3\": %s, \"trials\": %s, \
             \"samples\": %s }%s\n"
            name unit (num m.v) (num m.q1) (num m.q3) (json_list num m.per_trial)
            (json_list string_of_int m.samples) (last_of e2e_metrics k))
        e2e_metrics;
      Buffer.add_string b "      },\n      \"per_layer\": ";
      (match r.layers with
      | None -> Buffer.add_string b "null,\n      \"ledger\": null"
      | Some l -> (
          Printf.bprintf b "{ %s },\n      \"ledger\": "
            (String.concat ", "
               (List.map
                  (fun (n, u) ->
                    Printf.sprintf "%S: { \"unit\": %S, \"value\": %s }" n u
                      (num (List.assoc n l.metrics)))
                  layer_metrics));
          match l.ledger with
          | None -> Buffer.add_string b "null"
          | Some (cpu, terms) ->
              Printf.bprintf b "{ \"server_cpu_ns_per_op\": %s, \"terms\": { %s } }" (num cpu)
                (String.concat ", "
                   (List.map (fun (n, v) -> Printf.sprintf "%S: %s" n (num v)) terms))));
      Printf.bprintf b "\n    }%s\n" (last_of results i))
    results;
  Buffer.add_string b "  ]\n}\n";
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b)

(* The last stdout line: end-to-end metrics (unless traced), per-layer
   metrics (when traced), prefixed by workload when there are several. *)
let print_result_line o results =
  let key r n = if List.length results = 1 then n else r.x.w.name ^ "/" ^ n in
  let entries =
    List.concat_map
      (fun r ->
        let plain =
          if o.trace && not o.smoke then []
          else List.map (fun (n, u) -> (key r n, u, (List.assoc n r.e2e).v)) e2e_metrics
        in
        match r.layers with
        | Some l -> plain @ List.map (fun (n, u) -> (key r n, u, List.assoc n l.metrics)) layer_metrics
        | None -> plain)
      results
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (List.for_all (fun r -> r.problems = []) results)
    (List.fold_left (fun a r -> a + attempted r.x) 0 results)
    (List.fold_left (fun a r -> a + failed r.x) 0 results)
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
          entries))

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  let all = workloads ~smoke:o.smoke in
  let chosen =
    if o.names = [] then all
    else
      List.map
        (fun n ->
          match List.find_opt (fun w -> w.name = n) all with
          | Some w -> w
          | None ->
              Printf.eprintf "riommu_e2e: unknown workload %S (known: %s)\n" n
                (String.concat ", " (List.map (fun w -> w.name) all));
              exit 2)
        o.names
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Proc.kill_all;
  (try Unix.mkdir workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let runs = List.map (fun w -> { w; plain = []; traced = [] }) chosen in
  (match
     if o.smoke then rounds runs ~seed:o.seed ~min_rounds:1 ~seconds:0. ~traced:true
     else if o.trace then rounds runs ~seed:o.seed ~min_rounds:3 ~seconds:o.seconds ~traced:true
     else rounds runs ~seed:o.seed ~min_rounds:5 ~seconds:o.seconds ~traced:false
   with
  | () -> ()
  | exception e ->
      Proc.kill_all ();
      Printf.eprintf "riommu_e2e: %s\n" (Printexc.to_string e);
      exit 1);
  (try Unix.rmdir workdir with Unix.Unix_error _ -> ());
  let results =
    List.map
      (fun x ->
        let layers = if o.trace || o.smoke then Some (layer_values x ~seed:o.seed) else None in
        let problems =
          List.concat_map (fun (t : Live.trial) -> t.problems) (trials x)
          @ sim_problems x ~seed:o.seed ~smoke:o.smoke
          @ match layers with Some l -> l.replay_problems | None -> []
        in
        { x; e2e = e2e_values x; layers; problems })
      runs
  in
  print_report o results;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          List.iter
            (fun r ->
              match r.layers with
              | Some { spans = Some tr; _ } -> Replay.write_spans oc ~workload:r.x.w.name tr
              | _ -> ())
            results))
    o.trace_out;
  Option.iter (write_json o results) o.json;
  print_result_line o results;
  exit (if List.for_all (fun r -> r.problems = []) results then 0 else 1)
