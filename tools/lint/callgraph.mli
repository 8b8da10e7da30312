(** Whole-program call graph over the scanned [.cmt] typed trees.

    Nodes are toplevel (or submodule/functor-level) value bindings;
    edges are resolved identifier references inside a binding's body.
    Resolution handles, in order: same-unit references (matched by
    [Ident] stamp, so local shadowing cannot mislink), file-level module
    aliases ([module I_driver = Rio_domain.Driver]), functor
    instantiations ([module M = F (Impl)] routes [M.f] to [F]'s
    body), dune-wrapped library paths ([Rio_iova.Rbtree.lo] and
    [Rio_iova__Rbtree.lo]), same-unit submodule paths, and finally the
    manifest's [(callgraph (aliases ...))] hints for functor parameters
    and first-class modules the typed tree cannot resolve statically.

    Known imprecision (DESIGN.md §16): indirect calls through closures
    stored in data structures are not edges (the reference where the
    closure is created is), and every instantiation of a functor shares
    the same body node.

    A binding that binds no name ([let () = ...]) and a toplevel
    expression are defs named ["_"]: nothing refers to them, but the
    export rule starts from them. *)

type def = {
  d_id : int;
  d_unit : string;  (** dotted unit path, e.g. ["Rio_domain.Driver"] *)
  d_file : string;  (** canonical source path *)
  d_qual : string;  (** submodule-qualified name, e.g. ["F.drive"] *)
  d_name : string;  (** bare binding name *)
  d_display : string;  (** e.g. ["Driver.map_exn"], ["Cg_funct.F.drive"] *)
  d_canon : string;  (** e.g. ["Rio_domain.Driver.map_exn"], for boundary matching *)
  d_loc : Location.t;
  d_expr : Typedtree.expression;
  d_is_fun : bool;  (** body is a function literal (audited transitively) *)
}

type t

val create : Manifest.t -> (string * string * Typedtree.structure) list -> t
(** [create m units] indexes [(cmt_modname, source_file, structure)]
    triples. Deterministic for a given input order. *)

val defs : t -> def list
(** All definitions, in (file, location) order. *)

val find : t -> file:string -> name:string -> def list
(** Definitions with bare name [name] in the unit compiled from [file]
    (manifest entry-point lookup). *)

val refs : t -> def -> (def * Location.t) list
(** Resolved references inside [def]'s body, deduplicated per callee
    (first occurrence wins), in traversal order. Includes references to
    non-function definitions (data: the ownership rule's inventory). *)

val refs_in : t -> def -> Typedtree.expression -> (def * Location.t) list
(** Same, for an arbitrary subexpression of [def]'s unit (used for the
    ownership rule's spawned-closure escape check). *)

type seen
(** The defs one traversal has visited. *)

val seen : unit -> seen
val mem : seen -> def -> bool

val walk :
  t ->
  seen ->
  follow:(def -> string list -> bool) ->
  (def -> string list -> unit) ->
  def ->
  string list ->
  unit
(** [walk t seen ~follow visit d chain] is the depth-first traversal the
    interprocedural rules share. A def not yet in [seen] is added to
    it and passed to [visit] with its witness chain (display names from
    the root to it; [chain] for [d] itself). Then each of its {!refs}
    [tgt] is walked when [follow tgt chain'] holds, [chain'] being the
    chain extended by [tgt]. [follow] sees every edge, also into defs
    already visited. A def seen by an earlier walk with the same [seen]
    is skipped, so the first root to reach a def owns its chain. *)
