type t = { id : string; title : string; body : string; notes : string list }

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "=== %s: %s ===\n\n" t.id t.title);
  Buffer.add_string buf t.body;
  if t.notes <> [] then begin
    Buffer.add_char buf '\n';
    List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "note: %s\n" n)) t.notes
  end;
  Buffer.contents buf

(* {1 The cell/reduce contract (DESIGN.md §10)}

   An experiment's grid is a flat array of independent pure cells plus
   one reduce step. Cells may run in any order, on any domain; the
   reduce always sees their results indexed by cell position, so the
   rendered artifact is byte-identical at every [--jobs] level. The
   result type of the cells is private to each experiment, hence the
   existential. *)

type plan =
  | Plan : {
      cells : (unit -> 'a) array;
      reduce : 'a array -> t;
    }
      -> plan

let plan_of_list cells ~reduce =
  Plan { cells = Array.of_list cells; reduce = (fun rs -> reduce (Array.to_list rs)) }

(* Flatten many plans into one task list so a single pool schedules the
   whole registry; reduces then run sequentially in plan order (they are
   cheap - rendering only). *)
let run_plans ?jobs plans =
  let tasks = ref [] in
  let finishers =
    List.map
      (fun (id, Plan { cells; reduce }) ->
        let out = Array.make (Array.length cells) None in
        Array.iteri
          (fun i cell -> tasks := (fun () -> out.(i) <- Some (cell ())) :: !tasks)
          cells;
        (id, fun () -> reduce (Array.map Option.get out)))
      plans
  in
  let tasks = Array.of_list (List.rev !tasks) in
  ignore (Rio_exec.Pool.run ?jobs tasks : unit array);
  List.map (fun (id, finish) -> (id, finish ())) finishers
