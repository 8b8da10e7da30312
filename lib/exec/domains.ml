let cpu_count () = Domain.recommended_domain_count ()
