type event = Map of int | Access of int | Unmap of int

type t = event array

let cyclic ?(burst = 32) ~ring_size ~packets () =
  if ring_size <= 0 then invalid_arg "Trace.cyclic: ring_size";
  if burst <= 0 || burst > ring_size then invalid_arg "Trace.cyclic: burst";
  let events = ref [] in
  let next = ref 0 in
  let emitted = ref 0 in
  while !emitted < packets do
    let n = min burst (packets - !emitted) in
    let slots = List.init n (fun i -> (!next + i) mod ring_size) in
    List.iter (fun s -> events := Map s :: !events) slots;
    List.iter (fun s -> events := Access s :: !events) slots;
    List.iter (fun s -> events := Unmap s :: !events) slots;
    next := (!next + n) mod ring_size;
    emitted := !emitted + n
  done;
  Array.of_list (List.rev !events)

(* Each packet maps a one-page header IOVA and a one-or-two-page data
   IOVA (the kmalloc page-crossing mix the NIC model uses), so the
   allocator's placement - and therefore the page-to-page deltas the
   Distance prefetcher depends on - behaves as in the real system. *)
let linux_ring ?(burst = 32) ~ring_size ~packets () =
  if ring_size <= 0 then invalid_arg "Trace.linux_ring: ring_size";
  if burst <= 0 then invalid_arg "Trace.linux_ring: burst";
  let clock = Rio_sim.Cycles.create () in
  let alloc =
    Rio_iova.Linux_allocator.create ~limit_pfn:0xFFFFF ~clock
      ~cost:Rio_sim.Cost_model.default
  in
  let alloc_pfn size =
    match Rio_iova.Linux_allocator.alloc_pfn alloc ~size with
    | -1 -> failwith "Trace.linux_ring: IOVA space exhausted"
    | pfn -> pfn
  in
  let rng = Rio_sim.Rng.create ~seed:11 in
  let fifo = Queue.create () in
  let events = ref [] in
  let emitted = ref 0 in
  while !emitted < packets do
    let n = min burst (packets - !emitted) in
    let fresh =
      List.concat_map
        (fun _ ->
          let h = alloc_pfn 1 in
          let dsize = 1 + Rio_sim.Rng.int rng 2 in
          let d = alloc_pfn dsize in
          [ h; d ])
        (List.init n Fun.id)
    in
    List.iter
      (fun pfn ->
        Queue.add pfn fifo;
        events := Map pfn :: !events)
      fresh;
    List.iter (fun pfn -> events := Access pfn :: !events) fresh;
    while Queue.length fifo > 2 * ring_size do
      let old = Queue.pop fifo in
      let node = Rio_iova.Linux_allocator.find_exn alloc ~pfn:old in
      Rio_iova.Linux_allocator.free alloc node;
      events := Unmap old :: !events
    done;
    emitted := !emitted + n
  done;
  Array.of_list (List.rev !events)

let accesses t =
  Array.fold_left
    (fun acc ev -> match ev with Access _ -> acc + 1 | Map _ | Unmap _ -> acc)
    0 t

let pages t =
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun ev ->
      match ev with
      | Map p | Access p | Unmap p -> Hashtbl.replace seen p ())
    t;
  Hashtbl.length seen
