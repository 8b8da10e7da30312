(* Seeded violation: export. The root program (../examples) calls
   [from_root] and reads [plans]; nothing calls [dead]. *)

val from_root : int -> int

val via_data : int -> int
(** Reached only through the data value {!plans}. *)

val plans : (string * (int -> int)) list

val test_only : int -> int
(** Listed under (export (test-api ...)) in the cram's manifest. *)

val dead : int -> int
