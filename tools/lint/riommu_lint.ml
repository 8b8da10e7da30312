(* riommu-lint: typed-tree static analysis over the .cmt files the
   normal dune build produces.

   v2 is interprocedural: a whole-program call graph over every scanned
   unit makes the zero-alloc rule transitive from the manifest's hot
   entry points, and the ownership rule checks that no unguarded
   mutable location is reachable from two domain roles. The export rule
   walks the same graph from the programs (executables, benchmarks,
   examples) and flags library API none of them reaches. Wired as `dune
   build @lint`; see DESIGN.md §11/§16. *)

let usage =
  "riommu-lint --manifest lint.manifest.sexp --root DIR [--show-waived] \
   [--json PATH] [--baseline PATH] [--stale-check]"

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("riommu-lint: " ^ m);
      exit 2)
    fmt

(* Deterministic recursive scan (sorted, hidden dirs included: dune
   keeps .cmt artifacts under .<lib>.objs/byte and .<exe>.eobjs). *)
let rec collect_cmts acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then collect_cmts acc path
          else if Filename.check_suffix entry ".cmt" then path :: acc
          else acc)
        acc entries

let rule_names =
  [
    "determinism"; "domain-safety"; "zero-alloc"; "ownership"; "export";
    "interface";
  ]

type status = Active | Waived of Manifest.waiver | Baselined

let () =
  let manifest_path = ref "" in
  let root = ref "." in
  let show_waived = ref false in
  let json_path = ref "" in
  let baseline_path = ref "" in
  let stale_check = ref false in
  let spec =
    [
      ("--manifest", Arg.Set_string manifest_path, "PATH rule manifest");
      ("--root", Arg.Set_string root, "DIR tree holding sources and .cmt files");
      ("--show-waived", Arg.Set show_waived, " print waived/baselined findings too");
      ("--json", Arg.Set_string json_path, "PATH write machine-readable findings");
      ("--baseline", Arg.Set_string baseline_path, "PATH suppression baseline");
      ( "--stale-check",
        Arg.Set stale_check,
        " fail on waivers, baseline entries, boundaries and test-api \
         entries that no longer fire" );
    ]
  in
  Arg.parse spec (fun a -> fail "unexpected argument %S" a) usage;
  if !manifest_path = "" then fail "missing --manifest (%s)" usage;
  let m =
    match Manifest.load !manifest_path with
    | m -> m
    | exception Manifest.Invalid msg -> fail "invalid manifest: %s" msg
  in
  let baseline =
    if !baseline_path = "" then []
    else
      match Manifest.load_baseline !baseline_path with
      | b -> b
      | exception Manifest.Invalid msg -> fail "invalid baseline: %s" msg
  in
  (* The export rule's roots outside the scan dirs (benchmarks,
     examples) join the call graph only: no per-unit rule scans them. *)
  let root_dirs =
    List.map
      (fun r -> if Filename.check_suffix r ".ml" then Filename.dirname r else r)
      m.ex_roots
  in
  let cmts =
    List.sort_uniq String.compare
      (List.concat_map
         (fun dir -> collect_cmts [] (Filename.concat !root dir))
         (m.scan_dirs @ root_dirs))
  in
  (* Pass 1: read every unit up front — the call graph needs the whole
     program before any interprocedural rule can run. *)
  let read path =
    match Cmt_format.read_cmt path with
    | cmt -> cmt
    | exception _ -> fail "cannot read %s (stale build tree?)" path
  in
  let units = ref [] and interfaces = ref [] in
  List.iter
    (fun cmt_path ->
      let cmt = read cmt_path in
      match (cmt.Cmt_format.cmt_sourcefile, cmt.Cmt_format.cmt_annots) with
      | Some source, Cmt_format.Implementation str
        when Filename.check_suffix source ".ml"
             && Rules.under (m.scan_dirs @ m.ex_roots) source ->
          units := (cmt.Cmt_format.cmt_modname, source, str) :: !units;
          (* The export rule checks the interface of every scanned unit
             that is not itself a root. *)
          let cmti_path = cmt_path ^ "i" in
          if m.ex_roots <> []
             && (not (Rules.under m.ex_roots source))
             && Sys.file_exists cmti_path
          then (
            match (read cmti_path).Cmt_format.cmt_annots with
            | Cmt_format.Interface sg ->
                interfaces :=
                  (source, Filename.chop_suffix source ".ml" ^ ".mli", sg)
                  :: !interfaces
            | _ -> ())
      | _ -> () (* interfaces, packs, generated alias modules *))
    cmts;
  let units = List.rev !units and interfaces = List.rev !interfaces in
  let scanned =
    List.filter (fun (_, source, _) -> Rules.under m.scan_dirs source) units
  in
  let findings = ref [] in
  (* Per-unit rules. Locations inside a unit carry the compiler's view
     of the path; report them under the canonical source name so
     manifest waivers and editors agree on it. *)
  List.iter
    (fun (_modname, source, str) ->
      let in_unit = Rules.determinism m str @ Rules.domain_safety m str in
      findings :=
        List.map (fun f -> { f with Finding.file = source }) in_unit
        @ !findings)
    scanned;
  (* Interprocedural rules (these set canonical files themselves: a
     transitive finding lands in a different unit than its entry). *)
  let cg = Callgraph.create m units in
  let za_findings, hit_boundaries = Rules.transitive_zero_alloc m cg in
  let ex_findings, hit_test_api = Rules.export m cg ~interfaces in
  findings := za_findings @ Ownership.check m cg @ ex_findings @ !findings;
  findings := Rules.interface m ~root:!root @ !findings;
  let all = List.sort_uniq Finding.compare !findings in
  (* Classification; matched waiver/baseline keys feed --stale-check. *)
  let waiver_used = Hashtbl.create 16 and base_used = Hashtbl.create 16 in
  let classified =
    List.map
      (fun f ->
        match Finding.waived m f with
        | Some w ->
            Hashtbl.replace waiver_used (w.Manifest.w_rule, w.w_file, w.w_ident) ();
            (f, Waived w)
        | None -> (
            match Finding.baselined baseline f with
            | Some b ->
                Hashtbl.replace base_used (b.Manifest.bl_rule, b.bl_file, b.bl_subject) ();
                (f, Baselined)
            | None -> (f, Active)))
      all
  in
  let active = List.filter (fun (_, s) -> s = Active) classified in
  List.iter (fun (f, _) -> Finding.print stdout f) active;
  if !show_waived then
    List.iter
      (fun (f, s) ->
        match s with
        | Active -> ()
        | Waived w ->
            Finding.pp_span stdout f;
            Printf.printf ": [%s] waived: %s\n  justification: %s\n"
              f.Finding.rule f.Finding.message w.Manifest.w_just
        | Baselined ->
            Finding.pp_span stdout f;
            Printf.printf ": [%s] baselined: %s\n" f.Finding.rule
              f.Finding.message)
      classified;
  (* Stale suppressions: a waiver, baseline entry, call-graph boundary or
     test-api entry that no longer fires is debt pretending to be
     documentation. *)
  let stale = ref [] in
  if !stale_check then begin
    List.iter
      (fun (w : Manifest.waiver) ->
        if not (Hashtbl.mem waiver_used (w.w_rule, w.w_file, w.w_ident)) then
          stale :=
            Printf.sprintf "stale waiver: rule %s file %s%s" w.w_rule w.w_file
              (match w.w_ident with None -> "" | Some i -> " ident " ^ i)
            :: !stale)
      m.waivers;
    List.iter
      (fun (b : Manifest.baseline_entry) ->
        if not (Hashtbl.mem base_used (b.bl_rule, b.bl_file, b.bl_subject)) then
          stale :=
            Printf.sprintf "stale baseline entry: rule %s file %s subject %s"
              b.bl_rule b.bl_file b.bl_subject
            :: !stale)
      baseline;
    List.iter
      (fun (b : Manifest.boundary) ->
        if not (List.mem b.b_name hit_boundaries) then
          stale :=
            Printf.sprintf "stale boundary: %s (no hot edge reaches it)"
              b.b_name
            :: !stale)
      m.za_boundaries;
    List.iter
      (fun (e : Manifest.test_api) ->
        if not (List.mem e.t_name hit_test_api) then
          stale :=
            Printf.sprintf
              "stale test-api entry: %s (a program reaches it, or it is gone)"
              e.t_name
            :: !stale)
      m.ex_test_api;
    List.iter (fun s -> Printf.printf "riommu-lint: %s\n" s) (List.rev !stale)
  end;
  let count rule s =
    List.length
      (List.filter
         (fun (f, s') ->
           f.Finding.rule = rule
           &&
           match (s, s') with
           | `A, Active -> true
           | `W, Waived _ -> true
           | `B, Baselined -> true
           | _ -> false)
         classified)
  in
  List.iter
    (fun rule ->
      Printf.printf "riommu-lint: %s: %d active, %d waived, %d baselined\n"
        rule (count rule `A) (count rule `W) (count rule `B))
    rule_names;
  let n_active = List.length active in
  let n_waived =
    List.length (List.filter (fun (_, s) -> s <> Active && s <> Baselined) classified)
  in
  let n_base = List.length (List.filter (fun (_, s) -> s = Baselined) classified) in
  Printf.printf
    "riommu-lint: %d finding(s), %d waived, %d baselined, %d unit(s) checked\n"
    n_active n_waived n_base (List.length scanned);
  if !json_path <> "" then begin
    let oc = open_out !json_path in
    Printf.fprintf oc
      "{ \"version\": \"riommu-lint/1\",\n  \"active\": %d, \"waived\": %d, \
       \"baselined\": %d, \"units\": %d,\n  \"findings\": [" n_active n_waived
      n_base (List.length scanned);
    List.iteri
      (fun i (f, s) ->
        if i > 0 then output_char oc ',';
        output_string oc "\n    ";
        Finding.print_json oc
          ~status:
            (match s with
            | Active -> "active"
            | Waived _ -> "waived"
            | Baselined -> "baselined")
          f)
      classified;
    output_string oc "\n  ]\n}\n";
    close_out oc
  end;
  exit (if n_active > 0 || !stale <> [] then 1 else 0)
