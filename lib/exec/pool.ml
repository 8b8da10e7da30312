let default_jobs () = Backend.cpu_count ()

let resolve_jobs jobs =
  if jobs < 0 then invalid_arg "Rio_exec.Pool.run: jobs must be >= 0";
  if jobs = 0 then default_jobs () else jobs

let run ?(jobs = 1) tasks =
  let jobs = resolve_jobs jobs in
  if jobs <= 1 || Array.length tasks <= 1 then
    (* no pool: run in index order on the calling domain *)
    Array.map (fun f -> f ()) tasks
  else Backend.run ~jobs tasks

let run_list ?jobs tasks = Array.to_list (run ?jobs (Array.of_list tasks))
