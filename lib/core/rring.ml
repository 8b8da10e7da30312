module Addr = Rio_memory.Addr
module Coherency = Rio_memory.Coherency
module Frame_allocator = Rio_memory.Frame_allocator

let bytes_per_rpte = 16

(* Slot [i] owns words [2i] (phys) and [2i+1] (word1) of each view. *)
type t = {
  cpu : int array;
  hw : int array;
  coherency : Coherency.t;
  mutable tail : int;
  mutable nmapped : int;
}

let create ~size ~frames ~coherency =
  if size < 1 || size > 1 lsl Riova.rentry_bits then invalid_arg "Rring.create: size";
  let table_bytes = size * bytes_per_rpte in
  let nframes = (table_bytes + Addr.page_size - 1) / Addr.page_size in
  (* the flat table still takes its frames, whose address nothing reads
     ([sync] only charges), so every later frame number stays put *)
  if Frame_allocator.alloc_contiguous frames ~frames:nframes = None then
    failwith "Rring.create: out of physical memory for flat table";
  {
    cpu = Array.make (2 * size) 0;
    hw = Array.make (2 * size) 0;
    coherency;
    tail = 0;
    nmapped = 0;
  }

let size t = Array.length t.cpu / 2
let tail t = t.tail
let nmapped t = t.nmapped

let set_tail t v =
  if v < 0 || v >= size t then invalid_arg "Rring.set_tail";
  t.tail <- v

let incr_nmapped t = t.nmapped <- t.nmapped + 1
let decr_nmapped t = t.nmapped <- t.nmapped - 1
let cpu_word1 t i = t.cpu.((2 * i) + 1)
let hw_phys t i = t.hw.(2 * i)
let hw_word1 t i = t.hw.((2 * i) + 1)

let set_cpu t i ~phys ~word1 =
  t.cpu.(2 * i) <- phys;
  t.cpu.((2 * i) + 1) <- word1;
  if Coherency.is_coherent t.coherency then begin
    t.hw.(2 * i) <- phys;
    t.hw.((2 * i) + 1) <- word1
  end

let sync t i =
  Coherency.sync_mem t.coherency;
  t.hw.(2 * i) <- t.cpu.(2 * i);
  t.hw.((2 * i) + 1) <- t.cpu.((2 * i) + 1)
