(* ab-compare: the verdict table of a paired parent/change benchmark run.

     ab_compare [--benchmark FILE] RESULTS

   RESULTS holds one line per benchmark run:

     SIDE WORKLOAD ROUND RESULT-LINE

   where SIDE is [parent] or [change], ROUND pairs a parent run with a
   change run, and RESULT-LINE is the last stdout line of
   [sh bench/e2e/run.sh --workload WORKLOAD ...] (the
   [{"correct": ..., "metrics": {...}}] object). tools/ab/ab.sh writes
   this file; a run that printed no result object is written with
   nothing after ROUND. FILE (default BENCHMARK.json) says, per metric,
   whether higher or lower is better and its bound, the fraction of the
   parent's median by which the change may be worse.

   For each workload and metric it prints both medians, the change's
   delta in percent of the parent's median, the parent's interquartile
   range, the pairs the change won (k/N) and a verdict, the first that
   holds of:

     regressed   the change's median is worse than the parent's by more
                 than the bound
     unresolved  the parent's IQR is wider than the bound, and some
                 change run reads no better than some parent run
     resolved    at least 9 in 10 pairs won and |delta| > parent IQR
     -           none of these, or fewer than 10 pairs for resolved

   A metric with no bound in FILE gets neither of the first two.
   Quartiles use the exclusive method of Python's
   statistics.quantiles(n=4), as the benchmark's own report does.
   Exit 0; 1 when a run was incorrect or missing or a round lacks a
   side; 2 on a usage or parse error. *)

type run = {
  side : string;
  workload : string;
  round : int;
  result : bool;  (** the line held a result object *)
  correct : bool;
  failed : int;
  metrics : (string * float) list;
}

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("ab_compare: " ^ m); exit 2) fmt

(* {1 Reading} *)

let find_from s i sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go i

(* The text after [key] up to the next [,] or [}]. *)
let scalar_after s ~from key =
  match find_from s from key with
  | None -> None
  | Some i ->
      let start = i + String.length key in
      let stop = ref start in
      while !stop < String.length s && s.[!stop] <> ',' && s.[!stop] <> '}' do
        incr stop
      done;
      Some (String.trim (String.sub s start (!stop - start)), !stop)

(* [("name", value)] for every ["name": {"value": V, ...}] member of
   the line's [metrics] object, in order. *)
let parse_metrics s =
  match find_from s 0 "\"metrics\": {" with
  | None -> []
  | Some i ->
      let rec go from acc =
        match find_from s from "\": {\"value\": " with
        | None -> List.rev acc
        | Some j ->
            let q = String.rindex_from s (j - 1) '"' in
            let name = String.sub s (q + 1) (j - q - 1) in
            (match scalar_after s ~from:j "\"value\": " with
            | Some (v, stop) -> (
                match float_of_string_opt v with
                | Some f -> go stop ((name, f) :: acc)
                | None -> die "metric %s: value %S is not a number" name v)
            | None -> List.rev acc)
      in
      go (i + 12) []

let parse_line lineno line =
  let head, json =
    match String.index_opt line '{' with
    | None -> (line, "")
    | Some brace -> (String.sub line 0 brace, String.sub line brace (String.length line - brace))
  in
  match String.split_on_char ' ' head |> List.filter (( <> ) "") with
      | [ side; workload; round ] ->
          if side <> "parent" && side <> "change" then
            die "line %d: side %S is neither parent nor change" lineno side;
          let round =
            match int_of_string_opt round with
            | Some r -> r
            | None -> die "line %d: round %S is not a number" lineno round
          in
          let correct =
            match scalar_after json ~from:0 "\"correct\": " with
            | Some ("true", _) -> true
            | _ -> false
          in
          let failed =
            match scalar_after json ~from:0 "\"failed\": " with
            | Some (v, _) -> Option.value ~default:0 (int_of_string_opt v)
            | None -> 0
          in
          { side; workload; round; result = json <> ""; correct; failed;
            metrics = parse_metrics json }
      | _ -> die "line %d: expected SIDE WORKLOAD ROUND before the result" lineno

let read_lines path =
  let ic = try open_in path with Sys_error m -> die "%s" m in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Metric name -> (higher is better, bound), from each line of FILE
   that names a metric and its [better] direction. *)
let directions path =
  List.filter_map
    (fun l ->
      match
        ( scalar_after l ~from:0 "\"name\": ",
          scalar_after l ~from:0 "\"better\": " )
      with
      | Some (n, _), Some (b, _) ->
          let unquote s = String.concat "" (String.split_on_char '"' s) in
          let bound =
            match scalar_after l ~from:0 "\"bound\": " with
            | Some (v, _) -> float_of_string_opt v
            | None -> None
          in
          Some (unquote n, (unquote b = "higher", bound))
      | _ -> None)
    (read_lines path)

(* {1 Statistics} *)

(* Python's statistics.quantiles(n=4, method='exclusive'): (q1, q2,
   q3), q2 being the median. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* {1 The table} *)

(* [worse] is the change's median minus the parent's, positive when the
   change is worse. *)
let verdict ~bound ~pm ~worse ~separated ~wins ~pairs ~iqr =
  let past b x = match b with Some b -> x > b *. Float.abs pm | None -> false in
  if past bound worse then "regressed"
  else if past bound iqr && not separated then "unresolved"
  else if pairs >= 10 && 10 * wins >= 9 * pairs && Float.abs worse > iqr then "resolved"
  else "-"

let () =
  let bench = ref "BENCHMARK.json" and results = ref None in
  let rec args = function
    | "--benchmark" :: f :: rest ->
        bench := f;
        args rest
    | [ f ] when String.length f > 0 && f.[0] <> '-' -> results := Some f
    | _ -> die "usage: ab_compare [--benchmark FILE] RESULTS"
  in
  args (List.tl (Array.to_list Sys.argv));
  let path = match !results with Some p -> p | None -> assert false in
  let dirs = directions !bench in
  let runs = List.mapi (fun i l -> parse_line (i + 1) l) (read_lines path) in
  let status = ref 0 in
  List.iter
    (fun r ->
      if not r.result then begin
        Printf.printf "INCORRECT: %s %s round %d (no result)\n" r.side r.workload r.round;
        status := 1
      end
      else if (not r.correct) || r.failed > 0 then begin
        Printf.printf "INCORRECT: %s %s round %d (failed %d)\n" r.side r.workload
          r.round r.failed;
        status := 1
      end)
    runs;
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) runs) in
  Printf.printf "%-14s %-22s %12s %12s %8s %11s %6s  %s\n" "workload" "metric"
    "parent" "change" "delta" "parent-IQR" "wins" "verdict";
  List.iter
    (fun w ->
      let side s =
        List.filter (fun r -> r.workload = w && r.side = s) runs
      in
      let parent = side "parent" and change = side "change" in
      let pairs =
        List.filter_map
          (fun p ->
            match List.find_opt (fun c -> c.round = p.round) change with
            | Some c -> Some (p, c)
            | None -> None)
          parent
      in
      if List.length pairs <> List.length parent || List.length pairs <> List.length change
      then begin
        Printf.printf "UNPAIRED: %s has %d parent and %d change runs, %d pairs\n" w
          (List.length parent) (List.length change) (List.length pairs);
        status := 1
      end;
      let n = List.length pairs in
      (* every metric any run of the workload reports, in first-seen
         order; one missing from a run is left out of the table (the
         run is INCORRECT above) *)
      let names =
        List.fold_left
          (fun acc r ->
            List.fold_left
              (fun acc (m, _) -> if List.mem m acc then acc else acc @ [ m ])
              acc r.metrics)
          [] (parent @ change)
      in
      if n > 0 then
        List.iter
          (fun m ->
            let values pick =
              List.filter_map (fun pr -> List.assoc_opt m (pick pr).metrics) pairs
            in
            let pv = values fst and cv = values snd in
            if List.length pv = n && List.length cv = n then begin
              let higher, bound =
                match List.assoc_opt m dirs with
                | Some d -> d
                | None -> die "metric %s: no \"better\" direction in %s" m !bench
              in
              let wins =
                List.fold_left2
                  (fun k p c -> if (if higher then c > p else c < p) then k + 1 else k)
                  0 pv cv
              in
              let q1, pm, q3 = quartiles pv in
              let _, cm, _ = quartiles cv in
              let iqr = q3 -. q1 in
              let lo = List.fold_left Float.min Float.infinity
              and hi = List.fold_left Float.max Float.neg_infinity in
              (* every change run better than every parent run *)
              let separated = if higher then lo cv > hi pv else hi cv < lo pv in
              let delta = cm -. pm in
              Printf.printf "%-14s %-22s %12.6g %12.6g %+7.1f%% %11.4g %3d/%-2d  %s\n"
                w m pm cm
                (if pm <> 0. then 100. *. delta /. pm else 0.)
                iqr wins n
                (verdict ~bound ~pm ~worse:(if higher then -.delta else delta) ~separated ~wins
                   ~pairs:n ~iqr)
            end)
          names)
    workloads;
  exit !status
