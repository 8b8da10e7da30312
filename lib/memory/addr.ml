let page_size = 4096
let page_shift = 12

type phys = int

let phys_of_int a =
  if a < 0 then invalid_arg "Addr.phys_of_int: negative";
  a

let to_int a = a
let pfn a = a lsr page_shift
let of_pfn p = p lsl page_shift
let page_offset a = a land (page_size - 1)
let add a off = phys_of_int (a + off)
let is_page_aligned a = page_offset a = 0
let pp fmt a = Format.fprintf fmt "0x%08x" a
