(** Section 4 (Applicability): Bonnie++ sequential I/O on SATA drives.

    Strict IOMMU protection versus no IOMMU on a SATA HDD and a SATA
    SSD: the disk is the bottleneck, so the throughput is
    indistinguishable - the reason the rIOMMU does not target slow
    AHCI devices. *)

val plan : ?quick:bool -> ?seed:int -> unit -> Exp.plan
