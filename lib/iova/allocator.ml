type kind = Linux | Fast

type t = L of Linux_allocator.t | F of Fast_allocator.t

let create ~kind ~limit_pfn ~clock ~cost =
  match kind with
  | Linux -> L (Linux_allocator.create ~limit_pfn ~clock ~cost)
  | Fast -> F (Fast_allocator.create ~limit_pfn ~clock ~cost)

let alloc_pfn t ~size =
  match t with
  | L a -> Linux_allocator.alloc_pfn a ~size
  | F a -> Fast_allocator.alloc_pfn a ~size

let find_exn t ~pfn =
  match t with
  | L a -> Linux_allocator.find_exn a ~pfn
  | F a -> Fast_allocator.find_exn a ~pfn

let free t node =
  match t with L a -> Linux_allocator.free a node | F a -> Fast_allocator.free a node

let live = function L a -> Linux_allocator.live a | F a -> Fast_allocator.live a
