open Rio_sim
open Rio_workload

type profile = Http | Kv

type tenant_spec = { profile : profile; think_mean : int; conn_mean : int }

let default_specs ~tenants =
  Array.init tenants (fun i ->
      {
        profile = (if i mod 2 = 0 then Http else Kv);
        think_mean = (if i mod 4 < 2 then 0 else 200_000);
        conn_mean = 64;
      })

type flow = {
  tenant : int;
  slot : int;
  ring_iova : int;  (* long-lived descriptor-ring page, mapped at create *)
  prefix : Splittable_rng.t;  (* seed / "serve" / shard / tenant / slot *)
  stream : Splittable_rng.cursor;  (* this connection's draws *)
  mutable conn_serial : int;
  mutable reqs_left : int;
  seg_phys : Rio_memory.Addr.phys array;  (* map_sg scratch: two lanes *)
  seg_bytes : int array;
  iovas : int array;
}

type t = {
  shard : Shard.t;
  specs : tenant_spec array;
  flows : flow array;
  eq : Rio_sim.Event_queue.t;  (* payload: flow slot *)
  sg_max : int;
  mutable requests : int;
  mutable connections : int;
  mutable dropped : int;
}

let page_size = Rio_memory.Addr.page_size

let[@inline] draw flow = Splittable_rng.draw flow.stream

(* the top 53 bits of a draw: the uniform the Objects samplers take *)
let[@inline] draw53 flow = Int64.to_int (Int64.shift_right_logical (draw flow) 11)

(* Allocation-free: the connection's stream is the flow's fixed prefix
   descended by the serial, written straight into the flow's cursor. *)
let open_connection t flow =
  let spec = t.specs.(flow.tenant) in
  Splittable_rng.seek_descend flow.stream flow.prefix flow.conn_serial;
  flow.conn_serial <- flow.conn_serial + 1;
  flow.reqs_left <- Objects.requests_per_connection ~mean:spec.conn_mean (draw53 flow);
  t.connections <- t.connections + 1

let create ~shard ~specs ~seed ~flows_per_tenant ~sg_max =
  if Array.length specs <> Shard.tenants shard then
    invalid_arg "Loadgen.create: specs size <> Shard.tenants";
  if flows_per_tenant < 1 then invalid_arg "Loadgen.create: flows_per_tenant";
  if sg_max < 1 then invalid_arg "Loadgen.create: sg_max";
  let root = Splittable_rng.create ~seed in
  let base =
    Splittable_rng.path root [ "serve"; string_of_int (Shard.id shard) ]
  in
  (* Each flow owns a descriptor-ring page for the lifetime of the
     service (mapped outside the recorded steady state, like a driver's
     ring setup): requests re-translate it on every descriptor fetch,
     which is the IOTLB-resident traffic ring-buffer devices generate. *)
  let ring_map tenant =
    match
      Rio_domain.Driver.map_exn
        (Rio_domain.Manager.driver (Shard.domain shard ~tenant))
        ~phys:(Shard.next_buf shard) ~bytes:page_size ~read:true ~write:true
    with
    | iova -> iova
    | exception Rio_domain.Driver.Exhausted ->
        invalid_arg "Loadgen.create: iova space exhausted"
  in
  let flows =
    Array.init
      (Array.length specs * flows_per_tenant)
      (fun slot ->
        let tenant = slot / flows_per_tenant in
        let prefix = Splittable_rng.(descend (descend base tenant) slot) in
        {
          tenant;
          slot;
          ring_iova = ring_map tenant;
          prefix;
          stream = Splittable_rng.cursor prefix;
          conn_serial = 0;
          reqs_left = 0;
          seg_phys = Array.make sg_max (Rio_memory.Addr.phys_of_int 0);
          seg_bytes = Array.make sg_max 0;
          iovas = Array.make sg_max 0;
        })
  in
  let t =
    {
      shard;
      specs;
      flows;
      eq = Event_queue.create ();
      sg_max;
      requests = 0;
      connections = 0;
      dropped = 0;
    }
  in
  Array.iter
    (fun flow ->
      open_connection t flow;
      let spec = specs.(flow.tenant) in
      let gap = Objects.think_cycles ~mean:spec.think_mean (draw53 flow) in
      Event_queue.push t.eq ~time:gap flow.slot)
    flows;
  t

let step t flow =
  let spec = t.specs.(flow.tenant) in
  (* descriptor fetch: the device re-reads its ring before moving data *)
  ignore
    (Shard.translate_record t.shard ~tenant:flow.tenant ~iova:flow.ring_iova
       ~write:false
      : Rio_memory.Addr.phys);
  let u = draw53 flow in
  let bytes =
    match spec.profile with
    | Http -> Objects.http_bytes u
    | Kv -> Objects.kv_bytes u
  in
  let pages = (bytes + page_size - 1) / page_size in
  let pages = if pages < 1 then 1 else if pages > t.sg_max then t.sg_max else pages in
  let wr = Int64.logand (draw flow) 1L = 0L in
  let tenant = flow.tenant in
  (if pages = 1 then begin
     let bytes = if bytes > page_size then page_size else bytes in
     let iova = Shard.map t.shard ~tenant ~phys:(Shard.next_buf t.shard) ~bytes in
     if iova < 0 then t.dropped <- t.dropped + 1
     else begin
       ignore
         (Shard.translate_record t.shard ~tenant ~iova ~write:wr
           : Rio_memory.Addr.phys);
       match Shard.unmap_record t.shard ~tenant ~iova with
       | Ok () -> ()
       | Error `Not_mapped -> assert false
     end
   end
   else begin
     let rem = ref bytes in
     for i = 0 to pages - 1 do
       let b = if !rem > page_size then page_size else !rem in
       let b = if b < 1 then 1 else b in
       flow.seg_phys.(i) <- Shard.next_buf t.shard;
       flow.seg_bytes.(i) <- b;
       rem := !rem - b
     done;
     if
       Shard.map_sg t.shard ~tenant ~phys:flow.seg_phys ~bytes:flow.seg_bytes
         ~n:pages ~iovas:flow.iovas
       < 0
     then t.dropped <- t.dropped + 1
     else begin
       for i = 0 to pages - 1 do
         ignore
           (Shard.translate_record t.shard ~tenant ~iova:flow.iovas.(i)
              ~write:wr
             : Rio_memory.Addr.phys)
       done;
       match Shard.unmap_sg_record t.shard ~tenant ~iovas:flow.iovas ~n:pages with
       | Ok () -> ()
       | Error `Not_mapped -> assert false
     end
   end);
  t.requests <- t.requests + 1;
  flow.reqs_left <- flow.reqs_left - 1;
  if flow.reqs_left <= 0 then open_connection t flow;
  let gap = Objects.think_cycles ~mean:spec.think_mean (draw53 flow) in
  let clock = Shard.clock t.shard in
  Event_queue.push t.eq ~time:(Cycles.now clock + gap) flow.slot

let run_until t ~deadline ~stop =
  let clock = Shard.clock t.shard in
  let running = ref true in
  while !running do
    if Rio_exec.Flag.get stop || Event_queue.is_empty t.eq then running := false
    else begin
      let te = Event_queue.next_time t.eq in
      if te > deadline then running := false
      else begin
        let slot = Event_queue.pop_exn t.eq in
        let now = Cycles.now clock in
        if te > now then Cycles.charge clock (te - now);
        step t t.flows.(slot)
      end
    end
  done;
  if not (Rio_exec.Flag.get stop) then begin
    let now = Cycles.now clock in
    if deadline > now then Cycles.charge clock (deadline - now)
  end

let requests t = t.requests
let connections t = t.connections
let dropped t = t.dropped
