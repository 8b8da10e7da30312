(* Child processes of the harness and what /proc says about them.
   Every child is registered until it has been waited for, so an
   aborted run still kills and reaps what it started. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let read_file path = In_channel.with_open_bin path In_channel.input_all

let remove path = try Sys.remove path with Sys_error _ -> ()

(* USER_HZ: the unit of utime/stime in /proc/PID/stat on Linux. *)
let ns_per_tick = 1e7

let live : int list ref = ref []

let spawn ?(env = []) ~out ~err prog args =
  let keep s =
    not (List.exists (fun (k, _) -> String.starts_with ~prefix:(k ^ "=") s) env)
  in
  let environ =
    Array.append
      (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))
      (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) env))
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let fd path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let ofd = fd out and efd = fd err in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ devnull; ofd; efd ])
      (fun () ->
        Unix.create_process_env prog (Array.of_list (prog :: args)) environ devnull
          ofd efd)
  in
  live := pid :: !live;
  pid

let forget pid = live := List.filter (fun p -> p <> pid) !live

let exit_code = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1

(* Wait for [pid], polling every [poll_s]; [on_poll] runs between polls
   (to sample /proc while the child lives). SIGKILL after [timeout_s]. *)
let wait ?(on_poll = fun () -> ()) ?(poll_s = 0.005) ~timeout_s pid =
  let deadline = now_ns () + int_of_float (timeout_s *. 1e9) in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now_ns () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          forget pid;
          -1
        end
        else begin
          on_poll ();
          Unix.sleepf poll_s;
          go ()
        end
    | _, st ->
        forget pid;
        exit_code st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let terminate ~timeout_s pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait ~timeout_s pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ ->
      forget pid;
      false
  | exception Unix.Unix_error _ -> false

(* utime + stime of [pid], in clock ticks (fields 14 and 15 of
   /proc/PID/stat; the command name before them may hold spaces). *)
let cpu_ticks pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let i = String.rindex s ')' + 2 in
  match String.split_on_char ' ' (String.sub s i (String.length s - i)) with
  | _state :: _ppid :: _pgrp :: _sess :: _tty :: _tpgid :: _flags :: _minflt
    :: _cminflt :: _majflt :: _cmajflt :: utime :: stime :: _ ->
      int_of_string utime + int_of_string stime
  | _ -> failwith "cpu_ticks: short /proc stat line"

(* Own CPU (user + system) in ns. *)
let self_cpu_ns () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9

(* CPU of reaped children so far, in ns. *)
let children_cpu_ns () =
  let t = Unix.times () in
  (t.Unix.tms_cutime +. t.Unix.tms_cstime) *. 1e9

(* First index at or after [from] where [sub] occurs in [s]. *)
let index_of ?(from = 0) s sub =
  let n = String.length sub and m = String.length s in
  let rec matches i k = k = n || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i = if i + n > m then None else if matches i 0 then Some i else go (i + 1) in
  go from

(* The integer right after the first [pat] at or after [from], e.g.
   [int_after s "\"requests\": "] on a stats file or
   [int_after s "minor_words: "] on a GC report. *)
let int_after ?from s pat =
  match index_of ?from s pat with
  | None -> None
  | Some i -> (
      let i = i + String.length pat in
      try Some (Scanf.sscanf (String.sub s i (String.length s - i)) " %d" Fun.id)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)

(* Peak resident set (VmHWM) of [pid] in KiB; 0 once it has exited. *)
let vm_hwm_kib pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | s -> Option.value ~default:0 (int_after s "VmHWM:")
