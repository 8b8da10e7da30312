(** rPTE: the rIOMMU's flat-table page-table entry (Figure 9c).

    Unlike the baseline IOMMU's page-granular PTE, an rPTE carries an
    arbitrary byte-granular [phys_addr]/[size] window plus a DMA
    direction, closing the same-page vulnerability of §4: the device can
    touch exactly the bytes of its target buffer, nothing else. *)

type dir =
  | To_memory  (** device writes memory (receive) *)
  | From_memory  (** device reads memory (transmit) *)
  | Bidirectional

type t = {
  phys_addr : Rio_memory.Addr.phys;
  size : int;  (** bytes; any value up to 2^30 *)
  dir : dir;
  valid : bool;
}

val invalid : t
(** The all-zero entry rings start with. *)

val make : phys_addr:Rio_memory.Addr.phys -> size:int -> dir:dir -> t
(** A valid entry. Raises [Invalid_argument] if [size] is not in
    [\[1, 2^30)]. *)

val permits : t -> write:bool -> bool
(** Whether a DMA in the given direction (write = into memory) is
    allowed. Invalid entries permit nothing. *)

val encode : t -> int64 * int64
(** The 128-bit hardware layout as two words: (phys_addr,
    size|dir|valid packed). *)

val decode : int64 * int64 -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
