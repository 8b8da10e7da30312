(* Arena grow/shrink churn under the deterministic domain pool.

   Each task builds its own rig (clock, frames, coherency, arena) from a
   task-local seed, runs a long map/unmap/reset churn that repeatedly
   grows the arena store and drains it back to the freelist, and folds
   every observable (op results, walk outcomes, node/mapped counts, the
   cycle meter) into an integer digest. The digests from a sequential
   run and a [--jobs 4] pool run must be identical: the arena holds no
   hidden global state and the pool's ordering guarantee delivers
   results in task order regardless of scheduling. *)

module Addr = Rio_memory.Addr
module Coherency = Rio_memory.Coherency
module Frame_allocator = Rio_memory.Frame_allocator
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Rng = Rio_sim.Rng
module Pte = Rio_pagetable.Pte
module Arena = Rio_pagetable.Arena
module Pool = Rio_exec.Pool

let mix h v = (h * 0x100000001b3) lxor v land max_int

let churn_digest seed =
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:200_000 in
  let coherency = Coherency.create ~coherent:(seed land 1 = 0) ~cost ~clock in
  let arena = Arena.create ~frames ~coherency ~clock ~cost in
  let rng = Rng.create ~seed in
  let digest = ref 0x2545F4914F6CDD1D in
  let note v = digest := mix !digest v in
  for round = 1 to 6 do
    (* grow: map a batch spread across interior tables so the store is
       forced to carve fresh nodes at every level *)
    let batch = 200 + Rng.int rng 200 in
    for _ = 1 to batch do
      let page = Rng.int rng 4096 in
      (* place the 9-bit index at a level chosen by the low page bits;
         keeps every iova inside the 48-bit space while exercising the
         carve path of all four levels *)
      let iova = (page lsr 3) lsl (12 + (9 * (page land 3))) in
      let pte = Pte.pack_make ~read:true ~write:(page land 1 = 0) ~pfn:page in
      (match Arena.map_exn arena ~iova ~pte with
      | () -> note 1
      | exception Arena.Already_mapped -> note 2);
      note (Arena.walk arena ~iova)
    done;
    note (Arena.mapped_count arena);
    note (Arena.node_count arena);
    note (Arena.store_nodes arena);
    (* shrink: unmap a random half of the universe, then occasionally
       drain the whole table back onto the freelist *)
    for _ = 1 to batch do
      let page = Rng.int rng 4096 in
      let iova = (page lsr 3) lsl (12 + (9 * (page land 3))) in
      match Arena.unmap_exn arena ~iova with
      | p -> note (Addr.pfn (Pte.packed_frame p))
      | exception Arena.Not_mapped -> note 3
    done;
    if round land 1 = 0 then begin
      Arena.reset arena;
      note (Arena.node_count arena)
    end;
    note (Arena.mapped_count arena);
    note (Arena.store_nodes arena);
    note (Cycles.now clock)
  done;
  !digest

let tasks = Array.init 16 (fun i () -> churn_digest (0x5eed + (i * 7919)))

let test_pool_digests_match_sequential () =
  let seq = Pool.run ~jobs:1 tasks in
  let par = Pool.run ~jobs:4 tasks in
  Alcotest.(check (array int)) "jobs:4 digests equal sequential" seq par

let test_repeat_run_is_stable () =
  let a = Pool.run ~jobs:4 tasks in
  let b = Pool.run ~jobs:4 tasks in
  Alcotest.(check (array int)) "re-run reproduces digests" a b

let () =
  Alcotest.run "rio_arena_stress"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel churn digests match sequential" `Quick
            test_pool_digests_match_sequential;
          Alcotest.test_case "repeat runs are stable" `Quick
            test_repeat_run_is_stable;
        ] );
    ]
