(* Unit and property tests for the discrete-event simulation engine. *)

module T = Simcore.Sim_time

let test_time_conversions () =
  Alcotest.(check int) "of_us" 1_500 (T.to_ns (T.of_us 1.5));
  Alcotest.(check (float 1e-9)) "to_us" 2.5 (T.to_us (T.of_ns 2_500));
  Alcotest.(check int) "add" 30 (T.add 10 20);
  Alcotest.(check int) "diff" 15 (T.diff 40 25);
  Alcotest.(check int) "max" 9 (T.max 3 9)

let test_heap_ordering () =
  let h = Simcore.Heap.create () in
  List.iter (fun k -> Simcore.Heap.push h ~key:k k) [ 5; 1; 9; 3; 7; 2; 8 ];
  let out = ref [] in
  let rec drain () =
    match Simcore.Heap.pop h with
    | Some (k, _) ->
      out := k :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (List.rev !out)

let test_heap_fifo_ties () =
  let h = Simcore.Heap.create () in
  List.iteri (fun i v -> Simcore.Heap.push h ~key:(i mod 2) v) [ "a"; "b"; "c"; "d" ];
  (* keys: a->0 b->1 c->0 d->1; pops: a, c (key 0 FIFO), then b, d *)
  let pop () = match Simcore.Heap.pop h with Some (_, v) -> v | None -> "?" in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  Alcotest.(check (list string)) "fifo ties" [ "a"; "c"; "b"; "d" ] [ p1; p2; p3; p4 ]

let test_heap_peek_and_length () =
  let h = Simcore.Heap.create () in
  Alcotest.(check bool) "empty" true (Simcore.Heap.is_empty h);
  Alcotest.(check (option int)) "peek empty" None (Simcore.Heap.peek_key h);
  Simcore.Heap.push h ~key:42 ();
  Simcore.Heap.push h ~key:7 ();
  Alcotest.(check (option int)) "peek min" (Some 7) (Simcore.Heap.peek_key h);
  Alcotest.(check int) "length" 2 (Simcore.Heap.length h)

let heap_property =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun keys ->
      let h = Simcore.Heap.create () in
      List.iter (fun k -> Simcore.Heap.push h ~key:k k) keys;
      let rec drain acc =
        match Simcore.Heap.pop h with
        | Some (k, _) -> drain (k :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare keys)

(* {1 Timer wheel} *)

(* Differential check against the reference Heap on an adversarial key
   sequence: bursts of near keys, far-future keys that overflow into the
   heap and must migrate back, equal keys that must pop in insertion
   order, and interleaved pops that drag the cursor forward. *)
let wheel_matches_heap =
  QCheck.Test.make ~count:200 ~name:"wheel pops in exact heap order"
    QCheck.(
      list
        (pair (oneofl [ `Push_near; `Push_far; `Push_dup; `Pop ]) small_nat))
    (fun script ->
      let w = Simcore.Wheel.create ~dummy:0 () in
      let h = Simcore.Heap.create () in
      let floor = ref 0 in
      let last_key = ref 0 in
      let check_pop () =
        match (Simcore.Wheel.pop w, Simcore.Heap.pop h) with
        | None, None -> true
        | Some (wk, wv), Some (hk, hv) ->
          floor := max !floor wk;
          wk = hk && wv = hv
        | _ -> false
      in
      let ok = ref true in
      List.iter
        (fun (op, n) ->
          if !ok then
            match op with
            | `Push_near ->
              let key = !floor + (n * 97) in
              last_key := key;
              Simcore.Wheel.push w ~key n;
              Simcore.Heap.push h ~key n;
              ok := Simcore.Wheel.length w = Simcore.Heap.length h
            | `Push_far ->
              (* Far beyond the 2^20 ns near window. *)
              let key = !floor + 2_000_000 + (n * 131) in
              last_key := key;
              Simcore.Wheel.push w ~key n;
              Simcore.Heap.push h ~key n
            | `Push_dup ->
              let key = max !floor !last_key in
              Simcore.Wheel.push w ~key n;
              Simcore.Heap.push h ~key n
            | `Pop -> ok := check_pop ())
        script;
      while !ok && not (Simcore.Wheel.is_empty w) do
        ok := check_pop ()
      done;
      !ok && Simcore.Heap.is_empty h)

let test_wheel_same_timestamp_fifo () =
  let w = Simcore.Wheel.create ~dummy:(-1) () in
  for i = 0 to 99 do
    Simcore.Wheel.push w ~key:5000 i
  done;
  for i = 0 to 99 do
    match Simcore.Wheel.pop w with
    | Some (5000, v) -> Alcotest.(check int) "fifo at equal keys" i v
    | _ -> Alcotest.fail "bad pop"
  done

let test_wheel_far_migration () =
  (* Far-future events (beyond the ~1 ms near window) must come back in
     order, including ties with near events pushed later. *)
  let w = Simcore.Wheel.create ~dummy:(-1) () in
  Simcore.Wheel.push w ~key:50_000_000 0;
  Simcore.Wheel.push w ~key:10 1;
  Simcore.Wheel.push w ~key:50_000_000 2;
  Alcotest.(check (option int)) "near first" (Some 10)
    (Simcore.Wheel.peek_key w);
  Alcotest.(check bool) "pop near" true (Simcore.Wheel.pop w = Some (10, 1));
  (* After the cursor jumps 50 ms ahead, a push between the old and new
     cursor positions must still pop first (cursor rewind). *)
  Alcotest.(check (option int)) "jump to far" (Some 50_000_000)
    (Simcore.Wheel.peek_key w);
  Simcore.Wheel.push w ~key:1_000_000 3;
  Alcotest.(check bool) "rewound" true (Simcore.Wheel.pop w = Some (1_000_000, 3));
  Alcotest.(check bool) "far tie order" true
    (Simcore.Wheel.pop w = Some (50_000_000, 0));
  Alcotest.(check bool) "far tie order 2" true
    (Simcore.Wheel.pop w = Some (50_000_000, 2));
  Alcotest.(check bool) "empty" true (Simcore.Wheel.is_empty w)

let test_wheel_cancel () =
  let w = Simcore.Wheel.create ~dummy:(-1) () in
  Simcore.Wheel.push w ~key:100 0;
  let tok_near = Simcore.Wheel.push_cancellable w ~key:100 1 in
  let tok_far = Simcore.Wheel.push_cancellable w ~key:9_000_000 2 in
  Simcore.Wheel.push w ~key:9_000_000 3;
  Alcotest.(check int) "length counts live" 4 (Simcore.Wheel.length w);
  Alcotest.(check bool) "cancel near" true (Simcore.Wheel.cancel w tok_near);
  Alcotest.(check bool) "cancel far" true (Simcore.Wheel.cancel w tok_far);
  Alcotest.(check bool) "double cancel" false (Simcore.Wheel.cancel w tok_near);
  Alcotest.(check int) "length after cancel" 2 (Simcore.Wheel.length w);
  Alcotest.(check bool) "skips near cancel" true
    (Simcore.Wheel.pop w = Some (100, 0));
  Alcotest.(check bool) "skips far cancel" true
    (Simcore.Wheel.pop w = Some (9_000_000, 3));
  Alcotest.(check bool) "cancel after pop" false
    (Simcore.Wheel.cancel w tok_near);
  Alcotest.(check bool) "empty" true (Simcore.Wheel.is_empty w)

let test_wheel_floor_guard () =
  let w = Simcore.Wheel.create ~dummy:0 () in
  Simcore.Wheel.push w ~key:500 1;
  ignore (Simcore.Wheel.pop w);
  Alcotest.check_raises "below floor"
    (Invalid_argument "Wheel.push: key below last popped key") (fun () ->
      Simcore.Wheel.push w ~key:499 2);
  Alcotest.check_raises "negative"
    (Invalid_argument "Wheel.push: negative key") (fun () ->
      Simcore.Wheel.push w ~key:(-1) 2)

let test_engine_order () =
  let e = Simcore.Engine.create () in
  let log = ref [] in
  Simcore.Engine.schedule e ~delay:(T.of_us 30.) (fun () -> log := "c" :: !log);
  Simcore.Engine.schedule e ~delay:(T.of_us 10.) (fun () -> log := "a" :: !log);
  Simcore.Engine.schedule e ~delay:(T.of_us 20.) (fun () -> log := "b" :: !log);
  Simcore.Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" (T.to_ns (T.of_us 30.))
    (T.to_ns (Simcore.Engine.now e))

let test_engine_nested_scheduling () =
  let e = Simcore.Engine.create () in
  let fired = ref 0 in
  Simcore.Engine.schedule e ~delay:10 (fun () ->
      Simcore.Engine.schedule e ~delay:5 (fun () -> incr fired));
  Simcore.Engine.run e;
  Alcotest.(check int) "nested fired" 1 !fired;
  Alcotest.(check int) "clock" 15 (T.to_ns (Simcore.Engine.now e))

let test_engine_past_raises () =
  let e = Simcore.Engine.create () in
  Simcore.Engine.schedule e ~delay:100 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.at: scheduling in the simulated past")
        (fun () -> Simcore.Engine.at e ~time:50 (fun () -> ())));
  Simcore.Engine.run e

let test_run_until () =
  let e = Simcore.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Simcore.Engine.schedule e ~delay:d (fun () -> fired := d :: !fired))
    [ 10; 20; 30 ];
  Simcore.Engine.run_until e 20;
  Alcotest.(check (list int)) "events <= 20" [ 10; 20 ] (List.rev !fired);
  Alcotest.(check int) "pending" 1 (Simcore.Engine.pending e);
  Alcotest.(check int) "clock advanced to limit" 20 (T.to_ns (Simcore.Engine.now e));
  Simcore.Engine.run e;
  Alcotest.(check (list int)) "all" [ 10; 20; 30 ] (List.rev !fired)

let test_rng_determinism () =
  let a = Simcore.Rng.create ~seed:99 and b = Simcore.Rng.create ~seed:99 in
  for _ = 1 to 20 do
    Alcotest.(check int64) "same stream" (Simcore.Rng.next_int64 a)
      (Simcore.Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Simcore.Rng.create ~seed:5 in
  let b = Simcore.Rng.split a in
  let x = Simcore.Rng.next_int64 a and y = Simcore.Rng.next_int64 b in
  Alcotest.(check bool) "different streams" true (x <> y)

let rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair (int_bound 1000) small_int)
    (fun (bound, seed) ->
      let bound = bound + 1 in
      let rng = Simcore.Rng.create ~seed in
      let v = Simcore.Rng.int rng ~bound in
      v >= 0 && v < bound)

let rng_float_bounds =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Simcore.Rng.create ~seed in
      let v = Simcore.Rng.float rng in
      v >= 0. && v < 1.)

(* {1 Rng streams} *)

let rng_stream_laws =
  QCheck.Test.make ~count:200 ~name:"rng stream derivation is pure and stable"
    QCheck.(pair small_nat (pair small_nat small_nat))
    (fun (seed, (i, j)) ->
      let draw r = List.init 4 (fun _ -> Simcore.Rng.next_int64 r) in
      let base () = Simcore.Rng.create ~seed in
      (* Pure: deriving does not advance the parent, and the same id
         always yields the same stream regardless of derivation order. *)
      let t = base () in
      let a1 = draw (Simcore.Rng.stream t ~id:i) in
      let a2 = draw (Simcore.Rng.stream t ~id:i) in
      let parent_untouched = draw t = draw (base ()) in
      let t2 = base () in
      let _ = draw (Simcore.Rng.stream t2 ~id:j) in
      let a3 = draw (Simcore.Rng.stream t2 ~id:i) in
      a1 = a2 && a1 = a3 && parent_untouched
      && (i = j || a1 <> draw (Simcore.Rng.stream (base ()) ~id:j)))

let test_stat () =
  let s = Simcore.Stat.create () in
  List.iter (Simcore.Stat.add s) [ 2.; 4.; 6. ];
  Alcotest.(check (float 1e-9)) "mean" 4. (Simcore.Stat.mean s);
  Alcotest.(check (float 1e-9)) "min" 2. (Simcore.Stat.min s);
  Alcotest.(check (float 1e-9)) "max" 6. (Simcore.Stat.max s);
  Alcotest.(check int) "count" 3 (Simcore.Stat.count s);
  Simcore.Stat.clear s;
  Alcotest.(check int) "cleared" 0 (Simcore.Stat.count s)

let test_geometric_mean () =
  Alcotest.(check (float 1e-9)) "gm" 4. (Simcore.Stat.geometric_mean [ 2.; 8. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stat.geometric_mean: empty list")
    (fun () -> ignore (Simcore.Stat.geometric_mean []))

let test_cpu_charge () =
  let e = Simcore.Engine.create () in
  let cpu = Simcore.Cpu.create e in
  let t1 = Simcore.Cpu.charge cpu ~cost:100 in
  let t2 = Simcore.Cpu.charge cpu ~cost:50 in
  Alcotest.(check int) "first completion" 100 (T.to_ns t1);
  Alcotest.(check int) "queued behind" 150 (T.to_ns t2);
  Alcotest.(check int) "busy total" 150 (T.to_ns (Simcore.Cpu.busy_time cpu));
  Simcore.Cpu.reset_busy cpu;
  Alcotest.(check int) "reset" 0 (T.to_ns (Simcore.Cpu.busy_time cpu))

let test_cpu_charge_then () =
  let e = Simcore.Engine.create () in
  let cpu = Simcore.Cpu.create e in
  let at = ref (-1) in
  Simcore.Cpu.charge_then cpu ~cost:70 (fun () -> at := T.to_ns (Simcore.Engine.now e));
  Simcore.Engine.run e;
  Alcotest.(check int) "callback at completion" 70 !at

let test_cpu_idle_gap () =
  (* Work charged after an idle gap starts at the current instant. *)
  let e = Simcore.Engine.create () in
  let cpu = Simcore.Cpu.create e in
  ignore (Simcore.Cpu.charge cpu ~cost:10);
  Simcore.Engine.schedule e ~delay:1000 (fun () ->
      let fin = Simcore.Cpu.charge cpu ~cost:5 in
      Alcotest.(check int) "starts at now" 1005 (T.to_ns fin));
  Simcore.Engine.run e

let test_tracer () =
  let tr = Simcore.Tracer.create ~enabled:true () in
  let s = Simcore.Tracer.scope tr ~host:"h" ~sub:Simcore.Tracer.Sim in
  Simcore.Tracer.instant s "x";
  Simcore.Tracer.instant s "y";
  Alcotest.(check int) "events" 2
    (List.length (Simcore.Tracer.typed_events tr));
  Simcore.Tracer.disable tr;
  Simcore.Tracer.instant s "z";
  Alcotest.(check int) "disabled" 2
    (List.length (Simcore.Tracer.typed_events tr));
  Simcore.Tracer.clear tr;
  Alcotest.(check int) "cleared" 0
    (List.length (Simcore.Tracer.typed_events tr))

let suite =
  [
    Alcotest.test_case "sim_time conversions" `Quick test_time_conversions;
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap FIFO on equal keys" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap peek/length" `Quick test_heap_peek_and_length;
    QCheck_alcotest.to_alcotest heap_property;
    QCheck_alcotest.to_alcotest wheel_matches_heap;
    Alcotest.test_case "wheel same-timestamp fifo" `Quick
      test_wheel_same_timestamp_fifo;
    Alcotest.test_case "wheel far migration and rewind" `Quick
      test_wheel_far_migration;
    Alcotest.test_case "wheel cancel-while-scheduled" `Quick test_wheel_cancel;
    Alcotest.test_case "wheel floor guard" `Quick test_wheel_floor_guard;
    Alcotest.test_case "engine event order" `Quick test_engine_order;
    Alcotest.test_case "engine nested scheduling" `Quick test_engine_nested_scheduling;
    Alcotest.test_case "engine rejects the past" `Quick test_engine_past_raises;
    Alcotest.test_case "run_until" `Quick test_run_until;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    QCheck_alcotest.to_alcotest rng_bounds;
    QCheck_alcotest.to_alcotest rng_float_bounds;
    QCheck_alcotest.to_alcotest rng_stream_laws;
    Alcotest.test_case "stat accumulator" `Quick test_stat;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "cpu charging" `Quick test_cpu_charge;
    Alcotest.test_case "cpu charge_then" `Quick test_cpu_charge_then;
    Alcotest.test_case "cpu idle gap" `Quick test_cpu_idle_gap;
    Alcotest.test_case "tracer" `Quick test_tracer;
  ]
