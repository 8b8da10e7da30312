module Dma_buffer = Rio_memory.Dma_buffer
module Phys_mem = Rio_memory.Phys_mem
module Rng = Rio_sim.Rng
module Cost_model = Rio_sim.Cost_model
module Rpte = Rio_core.Rpte
module Dma_api = Rio_protect.Dma_api

let slots = 32

type request = { addr : int; buf : Dma_buffer.t; bytes : int; write : bool }

type t = {
  api : Dma_api.t;
  mem : Phys_mem.t;
  rng : Rng.t;
  data_movement : bool;
  bandwidth_mbps : float;
  mutable in_flight : request list;
  done_q : request Queue.t;
  mutable disk_cycles : int;
  mutable faults : int;
}

let create ?(data_movement = true) ~bandwidth_mbps ~api ~mem ~rng () =
  if bandwidth_mbps <= 0. then invalid_arg "Sata.create: bandwidth";
  {
    api;
    mem;
    rng;
    data_movement;
    bandwidth_mbps;
    in_flight = [];
    done_q = Queue.create ();
    disk_cycles = 0;
    faults = 0;
  }

let service_cycles t bytes =
  let seconds = float_of_int bytes /. (t.bandwidth_mbps *. 1e6) in
  int_of_float (seconds *. Cost_model.cycles_per_second (Dma_api.cost t.api))

let submit t ~bytes ~write =
  if List.length t.in_flight + Queue.length t.done_q >= slots then Error `Busy
  else begin
    match Dma_buffer.alloc (Dma_api.frames t.api) ~size:bytes with
    | None -> Error `Map_failed
    | Some buf -> (
        let dir = if write then Rpte.From_memory else Rpte.To_memory in
        match Dma_api.map_exn t.api ~ring:0 ~phys:buf.Dma_buffer.base ~bytes ~dir with
        | exception (Rio_domain.Driver.Exhausted | Rio_core.Driver.Overflow) ->
            Dma_buffer.free (Dma_api.frames t.api) buf;
            Error `Map_failed
        | addr ->
            t.disk_cycles <- t.disk_cycles + service_cycles t bytes;
            t.in_flight <- { addr; buf; bytes; write } :: t.in_flight;
            Ok ())
  end

let device_complete t ~max =
  let n = ref 0 in
  while !n < max && t.in_flight <> [] do
    (* arbitrary completion order: pick a random in-flight request *)
    let arr = Array.of_list t.in_flight in
    let idx = Rng.int t.rng (Array.length arr) in
    let req = arr.(idx) in
    t.in_flight <- List.filteri (fun i _ -> i <> idx) t.in_flight;
    let addr = req.addr in
    let ok =
      if t.data_movement then
        if req.write then
          Result.is_ok (Dma.read_from_memory ~api:t.api ~mem:t.mem ~addr ~len:req.bytes)
        else
          Result.is_ok
            (Dma.write_to_memory ~api:t.api ~mem:t.mem ~addr
               ~data:(Bytes.make req.bytes 's'))
      else
        match Dma_api.translate_exn t.api ~iova:addr ~write:(not req.write) with
        | (_ : Rio_memory.Addr.phys) -> true
        | exception Rio_iommu.Fault.Translation_fault -> false
    in
    if not ok then t.faults <- t.faults + 1;
    Queue.add req t.done_q;
    incr n
  done;
  !n

let reclaim t =
  let n = Queue.length t.done_q in
  let i = ref 0 in
  Queue.iter
    (fun req ->
      (try Dma_api.unmap_exn t.api ~iova:req.addr ~end_of_burst:(!i = n - 1)
       with Rio_iommu.Fault.Not_mapped -> invalid_arg "Sata.reclaim: buffer was not mapped");
      Dma_buffer.free (Dma_api.frames t.api) req.buf;
      incr i)
    t.done_q;
  Queue.clear t.done_q;
  n

let disk_cycles t = t.disk_cycles
let faults t = t.faults
