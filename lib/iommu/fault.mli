(** The two failures both IOMMU engines share, declared once.

    The baseline engine ([Rio_domain.Driver]) and the rIOMMU engine
    ([Rio_core.Driver], [Rio_core.Hw]) raise these same exceptions, so
    a caller above them (the DMA API, the service) handles one
    exception per outcome whichever engine runs. The engines' own
    names for them are aliases. *)

exception Not_mapped
(** An unmap of an address with no live mapping. *)

exception Translation_fault
(** An I/O page fault: a DMA the IOMMU refused. Constant, so the
    translate paths never build a fault value; the engine that raised
    it records the fault's class (its [last_fault]). *)
