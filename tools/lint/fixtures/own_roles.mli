(* Seeded violations: ownership (two-role reach + spawner escape). *)

val shared_cursor : int ref
val guarded : int Atomic.t
val io_entry : unit -> unit
val exec_entry : unit -> unit
val spawn_leak : unit -> unit
