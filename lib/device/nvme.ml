module Dma_buffer = Rio_memory.Dma_buffer
module Phys_mem = Rio_memory.Phys_mem
module Rpte = Rio_core.Rpte
module Dma_api = Rio_protect.Dma_api
module Ring = Rio_ring.Ring

type command = { addr : int; buf : Dma_buffer.t; bytes : int; write : bool }

type queue_pair = { sq : command Ring.t; cq : command Queue.t }

type t = {
  api : Dma_api.t;
  mem : Phys_mem.t;
  data_movement : bool;
  qps : queue_pair array;
  mutable completed : int;
  mutable faults : int;
}

let ring_sizes ~queues ~depth = List.init queues (fun _ -> depth + 1)

let create ?(data_movement = true) ~queues ~depth ~api ~mem () =
  if queues <= 0 || depth <= 0 then invalid_arg "Nvme.create";
  {
    api;
    mem;
    data_movement;
    qps =
      Array.init queues (fun _ ->
          { sq = Ring.create ~size:(depth + 1); cq = Queue.create () });
    completed = 0;
    faults = 0;
  }

let qp t queue =
  if queue < 0 || queue >= Array.length t.qps then invalid_arg "Nvme: queue id";
  t.qps.(queue)

let submit t ~queue ~bytes ~write =
  let q = qp t queue in
  if Ring.is_full q.sq then Error `Queue_full
  else begin
    match Dma_buffer.alloc (Dma_api.frames t.api) ~size:bytes with
    | None -> Error `Map_failed
    | Some buf -> (
        let dir = if write then Rpte.From_memory else Rpte.To_memory in
        match Dma_api.map_exn t.api ~ring:queue ~phys:buf.Dma_buffer.base ~bytes ~dir with
        | exception (Rio_domain.Driver.Exhausted | Rio_core.Driver.Overflow) ->
            Dma_buffer.free (Dma_api.frames t.api) buf;
            Error `Map_failed
        | addr -> (
            match Ring.post q.sq { addr; buf; bytes; write } with
            | Ok _ -> Ok ()
            | Error `Full -> assert false))
  end

let device_process t ~queue ~max =
  let q = qp t queue in
  let n = ref 0 in
  let continue = ref true in
  while !continue && !n < max do
    match Ring.consume q.sq with
    | None -> continue := false
    | Some cmd ->
        let addr = cmd.addr in
        let ok =
          if t.data_movement then
            if cmd.write then
              Result.is_ok (Dma.read_from_memory ~api:t.api ~mem:t.mem ~addr ~len:cmd.bytes)
            else
              Result.is_ok
                (Dma.write_to_memory ~api:t.api ~mem:t.mem ~addr
                   ~data:(Bytes.make cmd.bytes 'd'))
          else
            match Dma_api.translate_exn t.api ~iova:addr ~write:(not cmd.write) with
            | (_ : Rio_memory.Addr.phys) -> true
            | exception Rio_iommu.Fault.Translation_fault -> false
        in
        if not ok then t.faults <- t.faults + 1;
        Queue.add cmd q.cq;
        incr n
  done;
  !n

let reclaim t ~queue =
  let q = qp t queue in
  let n = Queue.length q.cq in
  let i = ref 0 in
  Queue.iter
    (fun cmd ->
      (try Dma_api.unmap_exn t.api ~iova:cmd.addr ~end_of_burst:(!i = n - 1)
       with Rio_iommu.Fault.Not_mapped -> invalid_arg "Nvme.reclaim: buffer was not mapped");
      Dma_buffer.free (Dma_api.frames t.api) cmd.buf;
      incr i)
    q.cq;
  Queue.clear q.cq;
  t.completed <- t.completed + n;
  n

let completed_total t = t.completed
let faults t = t.faults
