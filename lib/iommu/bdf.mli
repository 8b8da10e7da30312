(** PCI bus/device/function identifiers.

    Every DMA carries a 16-bit request identifier - 8-bit bus, 5-bit
    device, 3-bit function - which the IOMMU uses to locate the issuing
    device's translation structures (Figure 2). *)

type t = private { bus : int; device : int; func : int }

val make : bus:int -> device:int -> func:int -> t
(** Raises [Invalid_argument] when a field exceeds its width
    (bus < 256, device < 32, func < 8). *)

val to_rid : t -> int
(** The 16-bit request identifier: [bus << 8 | device << 3 | func]. *)
