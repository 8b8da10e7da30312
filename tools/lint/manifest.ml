(* The committed rule set: what to scan, what each rule forbids or
   requires, the call-graph resolution hints, and the waivers that
   silence individual findings with a recorded justification. See
   DESIGN.md §11/§16 for the schema. *)

type forbidden = { prefix : string; hint : string }
type hot = { h_file : string; h_funs : string list; h_role : string }
type boundary = { b_name : string; b_just : string }
type cg_alias = { a_file : string; a_module : string; a_targets : string list }
type root = { r_file : string; r_funs : string list; r_role : string }
type test_api = { t_name : string; t_just : string }

type waiver = {
  w_rule : string;
  w_file : string;
  w_ident : string option;  (* prefix match on the finding subject *)
  w_just : string;
}

type t = {
  scan_dirs : string list;
  det_forbidden : forbidden list;
  ds_mutable : string list;
  ds_sanctioned : string list;
  cg_aliases : cg_alias list;
  za_hot : hot list;
  za_boundaries : boundary list;
  own_roots : root list;
  own_sanctioned : string list;
  own_spawners : string list;
  ex_roots : string list;
  ex_test_api : test_api list;
  iface_require_mli : bool;
  waivers : waiver list;
}

type baseline_entry = {
  bl_rule : string;
  bl_file : string;
  bl_subject : string;
  bl_msg : string option;
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let atom = function
  | Lsexp.Atom a -> a
  | Lsexp.List _ -> invalid "expected an atom, found a list"

let atoms = function
  | Lsexp.List l -> List.map atom l
  | Lsexp.Atom a -> invalid "expected a list, found atom %S" a

(* Sections and fields are (key value...) pairs inside a list. *)
let field key items =
  List.find_map
    (function
      | Lsexp.List (Lsexp.Atom k :: rest) when k = key -> Some rest
      | _ -> None)
    items

let field1 key items =
  match field key items with
  | Some [ v ] -> Some v
  | Some _ -> invalid "field %S expects exactly one value" key
  | None -> None

let req1 key items =
  match field1 key items with
  | Some v -> v
  | None -> invalid "missing required field %S" key

let parse_forbidden = function
  | Lsexp.List items ->
      {
        prefix = atom (req1 "prefix" items);
        hint = (match field1 "hint" items with Some h -> atom h | None -> "");
      }
  | Lsexp.Atom a -> { prefix = a; hint = "" }

let roles = [ "io-domain"; "executor"; "any-domain" ]

let parse_role items =
  match field1 "role" items with
  | None -> "any-domain"
  | Some r ->
      let r = atom r in
      if not (List.mem r roles) then
        invalid "unknown role %S (expected %s)" r (String.concat " | " roles);
      r

let parse_entry ~what = function
  | Lsexp.List items ->
      ( atom (req1 "file" items),
        (match field "functions" items with
        | Some [ l ] -> atoms l
        | Some _ | None -> invalid "%s entry needs (functions (...))" what),
        parse_role items )
  | Lsexp.Atom a -> invalid "%s entry must be a list, found %S" what a

let parse_boundary = function
  | Lsexp.List items ->
      let just =
        match field1 "justification" items with
        | Some j -> atom j
        | None -> invalid "boundary without a (justification \"...\")"
      in
      if String.trim just = "" then
        invalid "boundary justification must be non-empty";
      { b_name = atom (req1 "name" items); b_just = just }
  | Lsexp.Atom a -> invalid "boundary must be a list, found %S" a

let parse_test_api = function
  | Lsexp.List items ->
      let just =
        match field1 "justification" items with
        | Some j -> atom j
        | None -> invalid "test-api entry without a (justification \"...\")"
      in
      if String.trim just = "" then
        invalid "test-api justification must be non-empty";
      { t_name = atom (req1 "name" items); t_just = just }
  | Lsexp.Atom a -> invalid "test-api entry must be a list, found %S" a

let parse_alias = function
  | Lsexp.List items ->
      {
        a_file = atom (req1 "file" items);
        a_module = atom (req1 "module" items);
        a_targets =
          (match field "targets" items with
          | Some [ l ] -> atoms l
          | Some _ | None -> invalid "callgraph alias needs (targets (...))");
      }
  | Lsexp.Atom a -> invalid "callgraph alias must be a list, found %S" a

let parse_waiver = function
  | Lsexp.List items ->
      let just =
        match field1 "justification" items with
        | Some j -> atom j
        | None -> invalid "waiver without a (justification \"...\")"
      in
      if String.trim just = "" then invalid "waiver justification must be non-empty";
      {
        w_rule = atom (req1 "rule" items);
        w_file = atom (req1 "file" items);
        w_ident = Option.map atom (field1 "ident" items);
        w_just = just;
      }
  | Lsexp.Atom a -> invalid "waiver must be a list, found %S" a

(* Duplicate entries for the same (file, function) or rule pair are a
   manifest bug — the first one silently winning is exactly how a gate
   rots — so they are rejected with the colliding key named. *)
let check_dups ~what keys =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun key ->
      if Hashtbl.mem seen key then
        invalid "duplicate %s entry for %s (merge the entries)" what key;
      Hashtbl.add seen key ())
    keys

let load path =
  let items =
    match Lsexp.parse_file path with
    | [ Lsexp.List items ] -> items
    | _ -> invalid "%s: manifest must be a single toplevel list" path
    | exception Lsexp.Parse_error m -> invalid "%s: %s" path m
    | exception Sys_error m -> invalid "%s" m
  in
  let section key = match field key items with Some s -> s | None -> [] in
  let det = section "determinism" in
  let ds = section "domain-safety" in
  let cg = section "callgraph" in
  let za = section "zero-alloc" in
  let own = section "ownership" in
  let ex = section "export" in
  let iface = section "interface" in
  let m =
    {
      scan_dirs =
        (match field "scan-dirs" items with
        | Some [ l ] -> atoms l
        | Some _ | None -> invalid "manifest needs (scan-dirs (...))");
      det_forbidden =
        (match field "forbidden" det with
        | Some l -> List.map parse_forbidden l
        | None -> []);
      ds_mutable =
        (match field "mutable-constructors" ds with
        | Some [ l ] -> atoms l
        | Some _ -> invalid "(mutable-constructors ...) expects one list"
        | None -> []);
      ds_sanctioned =
        (match field "sanctioned" ds with
        | Some [ l ] -> atoms l
        | Some _ -> invalid "(sanctioned ...) expects one list"
        | None -> []);
      cg_aliases =
        (match field "aliases" cg with
        | Some l -> List.map parse_alias l
        | None -> []);
      za_hot =
        (match field "hot" za with
        | Some l ->
            List.map
              (fun s ->
                let h_file, h_funs, h_role = parse_entry ~what:"hot" s in
                { h_file; h_funs; h_role })
              l
        | None -> []);
      za_boundaries =
        (match field "boundaries" za with
        | Some l -> List.map parse_boundary l
        | None -> []);
      own_roots =
        (match field "roots" own with
        | Some l ->
            List.map
              (fun s ->
                let r_file, r_funs, r_role = parse_entry ~what:"root" s in
                { r_file; r_funs; r_role })
              l
        | None -> []);
      own_sanctioned =
        (match field "sanctioned" own with
        | Some [ l ] -> atoms l
        | Some _ -> invalid "ownership (sanctioned ...) expects one list"
        | None -> []);
      own_spawners =
        (match field "spawners" own with
        | Some [ l ] -> atoms l
        | Some _ -> invalid "(spawners ...) expects one list"
        | None -> []);
      ex_roots =
        (match field "roots" ex with
        | Some [ l ] -> atoms l
        | Some _ -> invalid "export (roots ...) expects one list"
        | None -> []);
      ex_test_api =
        (match field "test-api" ex with
        | Some l -> List.map parse_test_api l
        | None -> []);
      iface_require_mli =
        (match field1 "require-mli" iface with
        | Some v -> atom v = "true"
        | None -> false);
      waivers =
        (match field "waivers" items with
        | Some l -> List.map parse_waiver l
        | None -> []);
    }
  in
  check_dups ~what:"zero-alloc hot"
    (List.concat_map
       (fun h -> List.map (fun f -> h.h_file ^ " function " ^ f) h.h_funs)
       m.za_hot);
  check_dups ~what:"zero-alloc boundary"
    (List.map (fun b -> b.b_name) m.za_boundaries);
  check_dups ~what:"ownership root"
    (List.concat_map
       (fun r -> List.map (fun f -> r.r_file ^ " function " ^ f) r.r_funs)
       m.own_roots);
  check_dups ~what:"export test-api" (List.map (fun e -> e.t_name) m.ex_test_api);
  check_dups ~what:"callgraph alias"
    (List.map (fun a -> a.a_file ^ " module " ^ a.a_module) m.cg_aliases);
  check_dups ~what:"waiver"
    (List.map
       (fun w ->
         Printf.sprintf "rule %s file %s%s" w.w_rule w.w_file
           (match w.w_ident with None -> "" | Some i -> " ident " ^ i))
       m.waivers);
  m

let parse_baseline_entry = function
  | Lsexp.List items ->
      {
        bl_rule = atom (req1 "rule" items);
        bl_file = atom (req1 "file" items);
        bl_subject = atom (req1 "subject" items);
        bl_msg = Option.map atom (field1 "message" items);
      }
  | Lsexp.Atom a -> invalid "baseline entry must be a list, found %S" a

let load_baseline path =
  let items =
    match Lsexp.parse_file path with
    | [ Lsexp.List items ] -> items
    | _ -> invalid "%s: baseline must be a single toplevel list" path
    | exception Lsexp.Parse_error m -> invalid "%s: %s" path m
    | exception Sys_error m -> invalid "%s" m
  in
  let entries =
    match field "findings" items with
    | Some l -> List.map parse_baseline_entry l
    | None -> invalid "%s: baseline needs (findings ...)" path
  in
  check_dups ~what:"baseline"
    (List.map
       (fun b -> Printf.sprintf "rule %s file %s subject %s" b.bl_rule b.bl_file b.bl_subject)
       entries);
  entries
