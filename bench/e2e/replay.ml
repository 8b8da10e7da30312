(* The traced replay: a socket workload's request stream, from the same
   generator and seed as the live client, fed in-process through the
   public functions of each layer the server runs, with a span around
   every call (or every per-request loop over one batch, so the clock
   is read twice per batch, not per request).

   Three identically created shard arrays see the identical op
   sequence:
   - [a], behind the inline path (Conn.next, Dispatch.enqueue,
     Dispatch.flush_all) — what riommu-serve --domains 1 runs;
   - [b], the twin, driven directly through Shard.*_record to time the
     shard's own share, which flush_all and Executor.step contain;
   - [c], behind the cell path (Dispatch.flush_cells, Spsc push,
     Executor.step, Spsc pop, Dispatch.complete), driven on this one
     thread.
   The cell path's response bytes must equal the inline path's. *)

open Rio_serve
open Rio_serve_net

(* ---- spans ---- *)

let layers =
  [|
    "replay.round"; "wire.encode_request"; "wire.decode_response"; "conn.next";
    "dispatch.enqueue"; "dispatch.flush_all"; "shard.translate"; "shard.map";
    "shard.unmap"; "dispatch.flush_cells"; "emit.copy"; "spsc.push";
    "executor.step"; "spsc.pop"; "dispatch.complete";
  |]

let l_round = 0
let l_encode = 1
let l_decode = 2
let l_next = 3
let l_enqueue = 4
let l_flush = 5
let l_sh_translate = 6
let l_sh_map = 7
let l_sh_unmap = 8
let l_flush_cells = 9
let l_emit_copy = 10
let l_push = 11
let l_step = 12
let l_pop = 13
let l_complete = 14

type tracer = {
  mutable recording : bool;
  mutable batch : int;
  mutable parent : int;  (* the open round span, -1 when none *)
  sp_layer : int array;
  sp_start : int array;
  sp_end : int array;
  sp_parent : int array;
  sp_batch : int array;
  sp_ops : int array;
  mutable n : int;  (* spans logged; past capacity they are only aggregated *)
  ns : int array;
  calls : int array;
  ops : int array;
  words : int array;
}

let tracer ~cap =
  let z () = Array.make cap 0 and l () = Array.make (Array.length layers) 0 in
  {
    recording = false;
    batch = 0;
    parent = -1;
    sp_layer = z ();
    sp_start = z ();
    sp_end = z ();
    sp_parent = z ();
    sp_batch = z ();
    sp_ops = z ();
    n = 0;
    ns = l ();
    calls = l ();
    ops = l ();
    words = l ();
  }

let now = Proc.now_ns
let words () = int_of_float (Gc.minor_words ())

(* Close a span opened at [t0]/[w0]. The end clock is read first, so a
   span's duration carries the cost of one clock read, one minor-words
   read and this call: the calibrated empty-span cost removed later. *)
let span tr layer ~t0 ~w0 ~ops =
  let t1 = now () in
  let w1 = words () in
  if tr.recording then begin
    tr.ns.(layer) <- tr.ns.(layer) + (t1 - t0);
    tr.calls.(layer) <- tr.calls.(layer) + 1;
    tr.ops.(layer) <- tr.ops.(layer) + ops;
    tr.words.(layer) <- tr.words.(layer) + (w1 - w0);
    if tr.n < Array.length tr.sp_layer then begin
      let i = tr.n in
      tr.sp_layer.(i) <- layer;
      tr.sp_start.(i) <- t0;
      tr.sp_end.(i) <- t1;
      tr.sp_parent.(i) <- tr.parent;
      tr.sp_batch.(i) <- tr.batch;
      tr.sp_ops.(i) <- ops;
      tr.n <- i + 1
    end
  end

(* Median cost of an empty span, in ns and minor words. *)
let calibrate () =
  let tr = tracer ~cap:0 in
  tr.recording <- true;
  let k = 20_000 in
  let samples = Array.make k 0 in
  let w = ref 0 in
  for i = 0 to k - 1 do
    let before = tr.ns.(0) and wb = tr.words.(0) in
    let t0 = now () in
    let w0 = words () in
    span tr 0 ~t0 ~w0 ~ops:1;
    samples.(i) <- tr.ns.(0) - before;
    w := !w + (tr.words.(0) - wb)
  done;
  Array.sort compare samples;
  (float_of_int samples.(k / 2), float_of_int !w /. float_of_int k)

(* ---- the replay ---- *)

type result = {
  metrics : (string * float) list;
  ledger : (string * float) list;  (** server-side inline-path self ns/op *)
  lookups : int;
  spans : tracer;
  problems : string list;
}

type path = {
  shards : Shard.t array;
  d : Dispatch.t;
  conns : Conn.t array;
}

let make_path () =
  let shards = Topo.make_shards () in
  {
    shards;
    d = Topo.make_dispatch shards;
    conns =
      Array.init Topo.conns (fun i ->
          let c = Conn.create ~window:Topo.window ~sg_limit:Topo.sg_limit () in
          Conn.set_token c i;
          c);
  }

let iotlb_counts shards =
  Array.fold_left
    (fun (h, m) s ->
      let h = ref h and m = ref m in
      for tenant = 0 to Shard.tenants s - 1 do
        let st = Shard.iotlb_stats s ~tenant in
        h := !h + st.Rio_domain.Shared_iotlb.hits;
        m := !m + st.Rio_domain.Shared_iotlb.misses
      done;
      (!h, !m))
    (0, 0) shards

let run ~(spec : Gen.spec) ~seed =
  let overhead_ns, overhead_words = calibrate () in
  (* a round logs at most ~24 spans: encode, next, enqueue and decode
     per connection, flush, one per op-kind run on each twin shard, six
     on the cell path, and the round itself *)
  let tr = tracer ~cap:(24 * ((Gen.planned spec / spec.Gen.batch) + 1)) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let a = make_path () and c = make_path () in
  let twin = Topo.make_shards () in
  let gens =
    Array.init Topo.conns (fun idx ->
        Gen.create spec ~seed ~idx ~tenant:(Topo.tenant_of ~idx))
  in
  (* wire tenant -> (shard, domain slot), as Dispatch places tenants *)
  let place = Hashtbl.create 8 and next_slot = Array.make Topo.shards 0 in
  let placement ~tenant ~idx =
    match Hashtbl.find_opt place tenant with
    | Some p -> p
    | None ->
        let sh = Dispatch.shard_of a.d ~tenant ~bdf:(Topo.bdf ~idx) in
        let p = (sh, next_slot.(sh)) in
        next_slot.(sh) <- next_slot.(sh) + 1;
        Hashtbl.add place tenant p;
        p
  in
  let width = max spec.Gen.batch Gen.setup_chunk in
  let slots = Topo.conns * width in
  let cbuf = Array.init Topo.conns (fun _ -> Bytes.create 8192) in
  let clen = Array.make Topo.conns 0 in
  let rbuf = Bytes.create 65536 in
  let reqs = Array.init width (fun _ -> Wire.create_req ~sg_limit:Topo.sg_limit) in
  let resps = Array.init width (fun _ -> Wire.create_resp ~sg_limit:Topo.sg_limit) in
  (* the twin's op log for one round, replayed in shard order *)
  let tw_shard = Array.make slots 0 and tw_slot = Array.make slots 0 in
  let tw_op = Array.make slots 0 and tw_a = Array.make slots 0 in
  let tw_b = Array.make slots 0 and tw_order = Array.make slots 0 in
  let tw_n = ref 0 in
  let twin_faults = ref 0 in
  (* cell path plumbing *)
  let rfd, wfd = Unix.pipe ~cloexec:true () in
  let ex = Executor.create ~shards:c.shards ~sg_limit:Topo.sg_limit ~ring_cap:(2 * slots) ~wake_fd:wfd in
  let qw = Cell.req_width ~sg_limit:Topo.sg_limit in
  let rw = Cell.rsp_width ~sg_limit:Topo.sg_limit in
  let cell = Array.make qw 0 and scratch = Array.make qw 0 in
  let staged_cells = Array.init slots (fun _ -> Array.make qw 0) in
  let rsp_cells = Array.init slots (fun _ -> Array.make rw 0) in
  let staged = ref 0 in
  let emit ~shard:_ =
    Array.blit cell 0 staged_cells.(!staged) 0 qw;
    incr staged
  in
  let mismatched = ref 0 in
  let first = ref true in
  let ops_total = ref 0 in
  let round ~setup =
    let t_round = now () in
    let self = tr.n in
    if tr.recording && tr.n < Array.length tr.sp_layer then begin
      tr.parent <- self;
      tr.n <- tr.n + 1
    end;
    (* client: encode each connection's next batch *)
    for i = 0 to Topo.conns - 1 do
      let g = gens.(i) in
      let pos = if !first then Wire.encode_hello cbuf.(i) ~pos:0 ~bdf:(Topo.bdf ~idx:i) ~flags:0 else 0 in
      let t0 = now () in
      let w0 = words () in
      clen.(i) <- (if setup then Gen.encode_setup g cbuf.(i) ~pos else Gen.encode_batch g cbuf.(i) ~pos);
      span tr l_encode ~t0 ~w0 ~ops:g.Gen.n
    done;
    first := false;
    let round_ops = Array.fold_left (fun n g -> n + g.Gen.n) 0 gens in
    if tr.recording then ops_total := !ops_total + round_ops;
    (* inline path *)
    tw_n := 0;
    for i = 0 to Topo.conns - 1 do
      let conn = a.conns.(i) and n = gens.(i).Gen.n in
      Conn.feed conn cbuf.(i) ~pos:0 ~len:clen.(i);
      let t0 = now () in
      let w0 = words () in
      let got = ref 0 in
      for k = 0 to n - 1 do
        if Conn.next conn reqs.(k) > 0 then incr got
      done;
      span tr l_next ~t0 ~w0 ~ops:n;
      if !got <> n then problem "conn.next decoded %d of %d requests" !got n;
      let t0 = now () in
      let w0 = words () in
      for k = 0 to n - 1 do
        if not (Dispatch.enqueue a.d conn reqs.(k)) then begin
          Dispatch.flush_all a.d;
          ignore (Dispatch.enqueue a.d conn reqs.(k) : bool)
        end
      done;
      span tr l_enqueue ~t0 ~w0 ~ops:n;
      for k = 0 to n - 1 do
        let r = reqs.(k) in
        let sh, slot = placement ~tenant:r.Wire.tenant ~idx:i in
        let j = !tw_n in
        tw_shard.(j) <- sh;
        tw_slot.(j) <- slot;
        tw_op.(j) <- r.Wire.op;
        (if r.Wire.op = Wire.op_map then begin
           tw_a.(j) <- r.Wire.phys;
           tw_b.(j) <- r.Wire.bytes
         end
         else begin
           tw_a.(j) <- r.Wire.iova;
           tw_b.(j) <- (if r.Wire.write then 1 else 0)
         end);
        incr tw_n
      done
    done;
    let t0 = now () in
    let w0 = words () in
    Dispatch.flush_all a.d;
    span tr l_flush ~t0 ~w0 ~ops:round_ops;
    (* the twin: same ops, same per-shard order, one span per run of
       one op kind *)
    let m = ref 0 in
    for sh = 0 to Topo.shards - 1 do
      for j = 0 to !tw_n - 1 do
        if tw_shard.(j) = sh then begin
          tw_order.(!m) <- j;
          incr m
        end
      done
    done;
    let k = ref 0 in
    while !k < !m do
      let j0 = tw_order.(!k) in
      let sh = tw_shard.(j0) and op = tw_op.(j0) in
      let s = twin.(sh) in
      let t0 = now () in
      let w0 = words () in
      let run = ref 0 in
      while !k < !m && tw_shard.(tw_order.(!k)) = sh && tw_op.(tw_order.(!k)) = op do
        let j = tw_order.(!k) in
        let tenant = tw_slot.(j) in
        (if op = Wire.op_translate then (
           match Shard.translate_record s ~tenant ~iova:tw_a.(j) ~write:(tw_b.(j) <> 0) with
           | _ -> ()
           | exception Rio_domain.Manager.Translation_fault -> incr twin_faults)
         else if op = Wire.op_map then (
           match
             Shard.map_record s ~tenant ~phys:(Rio_memory.Addr.phys_of_int tw_a.(j))
               ~bytes:tw_b.(j)
           with
           | Ok _ -> ()
           | Error _ -> incr twin_faults)
         else
           match Shard.unmap_record s ~tenant ~iova:tw_a.(j) with
           | Ok () -> ()
           | Error _ -> incr twin_faults);
        incr run;
        incr k
      done;
      let layer =
        if op = Wire.op_translate then l_sh_translate
        else if op = Wire.op_map then l_sh_map
        else l_sh_unmap
      in
      span tr layer ~t0 ~w0 ~ops:!run
    done;
    (* cell path: decode and batch untimed (timed above), then the
       ring hand-off stage by stage *)
    for i = 0 to Topo.conns - 1 do
      let conn = c.conns.(i) in
      Conn.feed conn cbuf.(i) ~pos:0 ~len:clen.(i);
      for k = 0 to gens.(i).Gen.n - 1 do
        if Conn.next conn reqs.(k) > 0 then
          if not (Dispatch.enqueue c.d conn reqs.(k)) then problem "cell-path batch overflow"
      done
    done;
    staged := 0;
    let t0 = now () in
    let w0 = words () in
    Dispatch.flush_cells c.d ~cell ~emit;
    span tr l_flush_cells ~t0 ~w0 ~ops:!staged;
    let n = !staged in
    let t0 = now () in
    let w0 = words () in
    for k = 0 to n - 1 do
      Array.blit staged_cells.(k) 0 scratch 0 qw
    done;
    span tr l_emit_copy ~t0 ~w0 ~ops:n;
    let t0 = now () in
    let w0 = words () in
    let pushed = ref 0 in
    for k = 0 to n - 1 do
      if Spsc.try_push (Executor.request_ring ex) ~src:staged_cells.(k) then incr pushed
    done;
    span tr l_push ~t0 ~w0 ~ops:n;
    if !pushed <> n then problem "request ring full";
    let t0 = now () in
    let w0 = words () in
    let stepped = Executor.step ex in
    span tr l_step ~t0 ~w0 ~ops:stepped;
    let t0 = now () in
    let w0 = words () in
    let popped = ref 0 in
    while !popped < slots && Spsc.try_pop (Executor.response_ring ex) ~dst:rsp_cells.(!popped) do
      incr popped
    done;
    span tr l_pop ~t0 ~w0 ~ops:!popped;
    let t0 = now () in
    let w0 = words () in
    for k = 0 to !popped - 1 do
      let r = rsp_cells.(k) in
      Dispatch.complete c.d c.conns.(r.(Cell.r_slot)) ~cell:r
    done;
    span tr l_complete ~t0 ~w0 ~ops:!popped;
    (* responses back to the client *)
    for i = 0 to Topo.conns - 1 do
      let ca = a.conns.(i) and cc = c.conns.(i) in
      let q = Conn.queued ca in
      Bytes.blit (Conn.wbuf ca) (Conn.wpos ca) rbuf 0 q;
      Conn.consumed ca q;
      let qc = Conn.queued cc in
      if qc <> q || Bytes.sub (Conn.wbuf cc) (Conn.wpos cc) qc <> Bytes.sub rbuf 0 q then
        incr mismatched;
      Conn.consumed cc qc;
      let t0 = now () in
      let w0 = words () in
      let pos = ref 0 and got = ref 0 and continue = ref true in
      while !continue && !got < width do
        let r = Wire.decode_response rbuf ~pos:!pos ~avail:(q - !pos) resps.(!got) in
        if r > 0 then begin
          pos := !pos + r;
          incr got
        end
        else continue := false
      done;
      span tr l_decode ~t0 ~w0 ~ops:!got;
      let g = gens.(i) in
      for k = 0 to !got - 1 do
        Gen.check g resps.(k)
      done;
      if Gen.batch_open g then problem "connection %d: batch left unanswered" i;
      Gen.end_batch g
    done;
    if tr.recording && self < Array.length tr.sp_layer then begin
      tr.sp_layer.(self) <- l_round;
      tr.sp_start.(self) <- t_round;
      tr.sp_end.(self) <- now ();
      tr.sp_parent.(self) <- -1;
      tr.sp_batch.(self) <- tr.batch;
      tr.sp_ops.(self) <- round_ops
    end;
    tr.parent <- -1;
    tr.batch <- tr.batch + 1
  in
  while not (Array.for_all Gen.setup_done gens) do
    round ~setup:true
  done;
  let warm = spec.Gen.requests * 5 / 100 in
  let hits0, misses0 = (ref 0, ref 0) in
  while not (Array.for_all Gen.steady_done gens) do
    if (not tr.recording) && Array.for_all (fun g -> g.Gen.sent >= warm) gens then begin
      tr.recording <- true;
      let h, m = iotlb_counts a.shards in
      hits0 := h;
      misses0 := m
    end;
    round ~setup:false
  done;
  Unix.close rfd;
  Unix.close wfd;
  let hits, misses = iotlb_counts a.shards in
  let hits = hits - !hits0 and misses = misses - !misses0 in
  let bad = Array.fold_left (fun n g -> n + g.Gen.bad_status + g.Gen.wrong) 0 gens in
  if bad > 0 then problem "%d wrong responses in the replay" bad;
  if !twin_faults > 0 then problem "%d twin shard ops failed" !twin_faults;
  if !mismatched > 0 then
    problem "cell path answered differently from the inline path in %d batches" !mismatched;
  (* overhead-corrected totals *)
  let ns l = float_of_int tr.ns.(l) -. (float_of_int tr.calls.(l) *. overhead_ns) in
  let wd l = float_of_int tr.words.(l) -. (float_of_int tr.calls.(l) *. overhead_words) in
  let per n d = if d > 0 then n /. float_of_int d else 0. in
  let per_op l = per (ns l) tr.ops.(l) in
  let shard_layers = [ l_sh_translate; l_sh_map; l_sh_unmap ] in
  let shard_ns = List.fold_left (fun s l -> s +. ns l) 0. shard_layers in
  let shard_words = List.fold_left (fun s l -> s +. wd l) 0. shard_layers in
  let shard_ops = List.fold_left (fun s l -> s + tr.ops.(l)) 0 shard_layers in
  let total = !ops_total in
  let flush_self = per (ns l_flush -. shard_ns) total in
  let ledger =
    [
      ("conn.next", per_op l_next);
      ("dispatch.enqueue", per_op l_enqueue);
      ("dispatch.flush_self", flush_self);
      ("shard", per shard_ns total);
    ]
  in
  let metrics =
    [
      ("wire.encode_request_ns", per_op l_encode);
      ("wire.decode_response_ns", per_op l_decode);
      ("conn.next_ns", per_op l_next);
      ("dispatch.enqueue_ns", per_op l_enqueue);
      ("dispatch.flush_self_ns", flush_self);
      ("shard.translate_ns", per_op l_sh_translate);
      ("shard.map_ns", per_op l_sh_map);
      ("shard.unmap_ns", per_op l_sh_unmap);
      ("shard.iotlb_hit_ratio", per (float_of_int hits) (hits + misses));
      ("dispatch.flush_cells_ns", per (ns l_flush_cells -. ns l_emit_copy) tr.ops.(l_flush_cells));
      ("spsc.push_ns", per_op l_push);
      ("executor.step_ns", per (ns l_step -. shard_ns) tr.ops.(l_step));
      ("spsc.pop_ns", per_op l_pop);
      ("dispatch.complete_ns", per_op l_complete);
      ("conn.words_per_op", per (wd l_next) tr.ops.(l_next));
      ("dispatch.words_per_op", per (wd l_enqueue +. wd l_flush -. shard_words) total);
      ("shard.words_per_op", per shard_words shard_ops);
    ]
  in
  { metrics; ledger; lookups = hits + misses; spans = tr; problems = List.rev !problems }

(* IOTLB hits and misses of the simulated engine, run in-process with
   the configuration riommu-serve's sim mode uses for this seed. *)
let sim_iotlb ~seed ~duration =
  let cfg =
    { Server.default_config with Server.duration_s = duration; interval_s = 1.; jobs = 1; seed }
  in
  let r = Server.run cfg in
  Array.fold_left
    (fun (h, m) t -> (h + t.Server.t_hits, m + t.Server.t_misses))
    (0, 0) r.Server.tenants

(* Spans as JSON lines, one object per span; [id] is the line's index
   within the workload and [parent] refers to it. *)
let write_spans oc ~workload tr =
  for i = 0 to tr.n - 1 do
    Printf.fprintf oc
      "{\"workload\": %S, \"id\": %d, \"name\": %S, \"start_ns\": %d, \"end_ns\": %d, \
       \"parent\": %d, \"batch\": %d, \"ops\": %d}\n"
      workload i layers.(tr.sp_layer.(i)) tr.sp_start.(i) tr.sp_end.(i) tr.sp_parent.(i)
      tr.sp_batch.(i) tr.sp_ops.(i)
  done
