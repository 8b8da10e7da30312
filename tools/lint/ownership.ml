open Typedtree

(* A toplevel non-function binding is a *mutable location* when its
   spine (everything evaluated at module init, i.e. not delayed under a
   function) builds unsynchronized mutable state, and nothing on the
   spine goes through an ownership-sanctioned constructor. Mirrors the
   domain-safety spine walk, but as a classification rather than a
   finding: here only cross-role reachability is an error. *)
let is_mutable_location (m : Manifest.t) (d : Callgraph.def) =
  if d.d_is_fun then false
  else begin
    let mut = ref false and sanctioned = ref false in
    let expr it e =
      match e.exp_desc with
      | Texp_function _ -> ()
      | Texp_apply (fn, _) -> (
          match Rules.ident_of_fn fn with
          | Some n when List.exists (Rules.suffix_matches n) m.own_sanctioned
            ->
              sanctioned := true
          | Some n when List.mem n m.ds_mutable ->
              mut := true;
              Tast_iterator.default_iterator.expr it e
          | _ -> Tast_iterator.default_iterator.expr it e)
      | Texp_record { fields; _ } when Rules.mutable_record_fields fields ->
          mut := true;
          Tast_iterator.default_iterator.expr it e
      | Texp_array _ ->
          mut := true;
          Tast_iterator.default_iterator.expr it e
      | _ -> Tast_iterator.default_iterator.expr it e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.expr it d.d_expr;
    !mut && not !sanctioned
  end

let pp_chain chain = String.concat " -> " chain

let missing_root (r : Manifest.root) fn =
  {
    Finding.rule = "ownership";
    file = r.r_file;
    line = 1;
    col = 0;
    end_line = 1;
    end_col = 0;
    subject = fn;
    message =
      Printf.sprintf
        "ownership root `%s` not found in %s (manifest out of date?)" fn
        r.r_file;
    hint = "fix the (roots ...) entry in lint.manifest.sexp";
    chain = [];
  }

let check (m : Manifest.t) cg =
  let roots =
    List.map
      (fun (h : Manifest.hot) ->
        { Manifest.r_file = h.h_file; r_funs = h.h_funs; r_role = h.h_role })
      m.za_hot
    @ m.own_roots
  in
  let findings = ref [] in
  let mutable_cache = Hashtbl.create 64 in
  let is_mut (d : Callgraph.def) =
    match Hashtbl.find_opt mutable_cache d.d_id with
    | Some b -> b
    | None ->
        let b = is_mutable_location m d in
        Hashtbl.add mutable_cache d.d_id b;
        b
  in
  (* One visited set per role; per-def role reach lists keep the first
     witness chain per role, in discovery order (manifest order, then
     DFS order), so reports are stable. *)
  let seen_by_role = Hashtbl.create 4 in
  let seen_of role =
    match Hashtbl.find_opt seen_by_role role with
    | Some s -> s
    | None ->
        let s = Callgraph.seen () in
        Hashtbl.add seen_by_role role s;
        s
  in
  let reach : (int, (string * string list) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let fn_order : (Callgraph.def * string * string list) list ref = ref [] in
  let record_reach (d : Callgraph.def) role chain =
    let l =
      match Hashtbl.find_opt reach d.d_id with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.add reach d.d_id l;
          l
    in
    if not (List.mem_assoc role !l) then l := !l @ [ (role, chain) ]
  in
  (* A mutable location is recorded, not descended; only function
     bodies are followed. *)
  let follow role (tgt : Callgraph.def) chain =
    if is_mut tgt then begin
      record_reach tgt role chain;
      false
    end
    else tgt.d_is_fun
  in
  let visit role (d : Callgraph.def) chain =
    if not (List.exists (fun (d', _, _) -> d'.Callgraph.d_id = d.d_id) !fn_order)
    then fn_order := (d, role, chain) :: !fn_order
  in
  List.iter
    (fun (r : Manifest.root) ->
      List.iter
        (fun fn ->
          match Callgraph.find cg ~file:r.r_file ~name:fn with
          | [] -> findings := missing_root r fn :: !findings
          | ds ->
              List.iter
                (fun (d : Callgraph.def) ->
                  Callgraph.walk cg (seen_of r.r_role) ~follow:(follow r.r_role)
                    (visit r.r_role) d [ d.d_display ])
                ds)
        r.r_funs)
    roots;
  (* Two distinct roles reaching the same unguarded location. *)
  let conflicts = ref [] in
  Hashtbl.iter
    (fun id l ->
      match !l with
      | (r1, c1) :: (r2, c2) :: _ when r1 <> r2 -> conflicts := (id, (r1, c1), (r2, c2)) :: !conflicts
      | _ -> ())
    reach;
  let defs_by_id = Hashtbl.create 64 in
  List.iter (fun (d : Callgraph.def) -> Hashtbl.replace defs_by_id d.d_id d) (Callgraph.defs cg);
  List.iter
    (fun (id, (r1, c1), (r2, c2)) ->
      match Hashtbl.find_opt defs_by_id id with
      | None -> ()
      | Some (d : Callgraph.def) ->
          findings :=
            {
              (Finding.of_loc ~rule:"ownership" ~subject:d.d_display
                 ~message:
                   (Printf.sprintf
                      "mutable state `%s` is reachable from role %s (%s) and \
                       role %s (%s)"
                      d.d_display r1 (pp_chain c1) r2 (pp_chain c2))
                 ~hint:
                   "guard it with Atomic/Spsc/Mutex, move it into the \
                    owning role, or waive with a justification"
                 ~chain:c1 d.d_loc)
              with Finding.file = d.d_file;
            }
            :: !findings)
    (List.sort compare !conflicts);
  (* Spawned-closure escape check: a closure literal handed to a
     spawner must not capture a toplevel mutable location — the spawned
     domain is outside every role. Each function is scanned once, under
     the first role that reached it. *)
  List.iter
    (fun ((d : Callgraph.def), role, chain) ->
      let expr it e =
        (match e.exp_desc with
        | Texp_apply (fn, args) -> (
            match Rules.ident_of_fn fn with
            | Some n -> (
                match
                  List.find_opt (Rules.suffix_matches n) m.own_spawners
                with
                | None -> ()
                | Some spawner ->
                    List.iter
                      (function
                        | _, Some arg -> (
                            match arg.exp_desc with
                            | Texp_function _ ->
                                List.iter
                                  (fun ((tgt : Callgraph.def), _) ->
                                    if is_mut tgt then
                                      findings :=
                                        {
                                          (Finding.of_loc ~rule:"ownership"
                                             ~subject:d.d_display
                                             ~message:
                                               (Printf.sprintf
                                                  "closure passed to `%s` \
                                                   captures mutable state \
                                                   `%s`; the spawned domain \
                                                   runs outside role %s"
                                                  spawner tgt.d_display role)
                                             ~hint:
                                               "pass the state through the \
                                                spawn argument, guard it \
                                                with Atomic/Spsc/Mutex, \
                                                or waive with a justification"
                                             ~chain arg.exp_loc)
                                          with Finding.file = d.d_file;
                                        }
                                        :: !findings)
                                  (Callgraph.refs_in cg d arg)
                            | _ -> ())
                        | _ -> ())
                      args)
            | None -> ())
        | _ -> ());
        Tast_iterator.default_iterator.expr it e
      in
      let it = { Tast_iterator.default_iterator with expr } in
      it.expr it d.d_expr)
    (List.rev !fn_order);
  List.rev !findings
