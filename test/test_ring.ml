(* Unit and property tests for the descriptor ring (rio_ring). *)

module Ring = Rio_ring.Ring

let test_post_consume_order () =
  let r = Ring.create ~size:4 in
  Alcotest.(check bool) "empty" true (Ring.is_empty r);
  Alcotest.(check int) "capacity is size-1" 3 (Ring.size r - 1);
  List.iter (fun x -> ignore (Ring.post r x)) [ 1; 2; 3 ];
  Alcotest.(check bool) "full at capacity" true (Ring.is_full r);
  Alcotest.(check bool) "post to full fails" true (Ring.post r 4 = Error `Full);
  Alcotest.(check (option int)) "consume 1" (Some 1) (Ring.consume r);
  Alcotest.(check (option int)) "consume 2" (Some 2) (Ring.consume r);
  ignore (Ring.post r 4);
  Alcotest.(check (option int)) "fifo across wrap" (Some 3) (Ring.consume r);
  Alcotest.(check (option int)) "wrapped element" (Some 4) (Ring.consume r);
  Alcotest.(check (option int)) "drained" None (Ring.consume r)

let test_wraparound_indices () =
  let r = Ring.create ~size:3 in
  for i = 1 to 20 do
    (match Ring.post r i with Ok _ -> () | Error `Full -> Alcotest.fail "full");
    Alcotest.(check (option int)) "immediate consume" (Some i) (Ring.consume r);
    match Ring.check_invariants r with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  done

let test_size_validation () =
  Alcotest.check_raises "size 1 rejected"
    (Invalid_argument "Ring.create: size must exceed 1") (fun () ->
      ignore (Ring.create ~size:1))

let prop_ring_fifo =
  QCheck.Test.make ~name:"ring delivers FIFO under arbitrary post/consume" ~count:200
    QCheck.(pair (int_range 2 16) (list bool))
    (fun (size, ops) ->
      let r = Ring.create ~size in
      let reference = Queue.create () in
      let next = ref 0 in
      List.for_all
        (fun is_post ->
          if is_post then begin
            match Ring.post r !next with
            | Ok _ ->
                Queue.add !next reference;
                incr next;
                true
            | Error `Full -> Queue.length reference = size - 1
          end
          else begin
            match (Ring.consume r, Queue.take_opt reference) with
            | None, None -> true
            | Some a, Some b -> a = b
            | _ -> false
          end)
        ops
      && Ring.check_invariants r = Ok ())

let prop_length_consistent =
  QCheck.Test.make ~name:"ring length equals posts minus consumes" ~count:200
    QCheck.(list bool)
    (fun ops ->
      let r = Ring.create ~size:8 in
      let count = ref 0 in
      List.iter
        (fun is_post ->
          if is_post then begin
            match Ring.post r 0 with Ok _ -> incr count | Error `Full -> ()
          end
          else begin
            match Ring.consume r with Some _ -> decr count | None -> ()
          end)
        ops;
      Ring.length r = !count)

let test_full_ring_window () =
  let r = Ring.create ~size:4 in
  List.iter (fun x -> ignore (Ring.post r x)) [ 1; 2; 3 ];
  Alcotest.(check bool) "full window is consistent" true (Ring.check_invariants r = Ok ());
  Alcotest.(check int) "full window holds capacity" 3 (Ring.length r);
  Alcotest.(check bool) "rejected post leaves the window" true
    (Ring.post r 4 = Error `Full && Ring.check_invariants r = Ok ())

let prop_invariants_every_step =
  QCheck.Test.make ~name:"invariants hold after every post and consume" ~count:200
    QCheck.(pair (int_range 2 16) (list bool))
    (fun (size, ops) ->
      let r = Ring.create ~size in
      List.for_all
        (fun is_post ->
          (if is_post then ignore (Ring.post r 0) else ignore (Ring.consume r));
          Ring.check_invariants r = Ok ()
          && Ring.length r >= 0
          && Ring.length r < Ring.size r)
        ops)

let () =
  Alcotest.run "rio_ring"
    [
      ( "ring",
        [
          Alcotest.test_case "post/consume order" `Quick test_post_consume_order;
          Alcotest.test_case "wraparound" `Quick test_wraparound_indices;
          Alcotest.test_case "size validation" `Quick test_size_validation;
          QCheck_alcotest.to_alcotest prop_ring_fifo;
          QCheck_alcotest.to_alcotest prop_length_consistent;
        ] );
      (* Alcotest sizes the test-name column to the longest group name;
         with "invariants" the longest, printed test ids stay as they were. *)
      ( "invariants",
        [
          Alcotest.test_case "full ring window" `Quick test_full_ring_window;
          QCheck_alcotest.to_alcotest prop_invariants_every_step;
        ] );
    ]
