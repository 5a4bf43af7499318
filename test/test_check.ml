(* Kernel-state invariant checker and fault-schedule fuzzer tests. *)

module F = Check.Fuzzer
module I = Check.Invariants
module As = Vm.Address_space

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_catalogue () =
  Alcotest.(check int) "twelve invariants" 12 (List.length I.all);
  let w = Genie.World.create () in
  Alcotest.(check (list string))
    "fresh world is clean" []
    (List.map I.violation_to_string
       (I.check_world [ w.Genie.World.a; w.Genie.World.b ]))

(* The acceptance run: a long randomized schedule mixing all eight
   semantics over all three buffering architectures, with the full
   invariant suite after every step. *)
let test_long_fuzz () =
  (* Seed 2: with the fabric-churn regime in the action mix, this is a
     2000-step schedule that still exhibits every degradation mechanism
     asserted below. *)
  let o = F.run { F.default_config with steps = 2000; seed = 2 } in
  (match o.F.stop with
  | F.Completed -> ()
  | F.Violations vs ->
    Alcotest.failf "invariant violations after %d steps:\n%s" o.F.steps_run
      (String.concat "\n" (List.map I.violation_to_string vs)));
  Alcotest.(check int) "ran every step" 2000 o.F.steps_run;
  Alcotest.(check bool) "substantial transfer load" true
    (o.F.transfers_started > 200);
  Alcotest.(check bool) "faults were injected" true (o.F.faults_injected > 50);
  (* every one of the eight semantics appeared as an output semantics *)
  List.iter
    (fun sem ->
      let tag = "out=" ^ Genie.Semantics.name sem in
      Alcotest.(check bool) (tag ^ " exercised") true
        (List.exists (fun line -> contains line tag) o.F.schedule))
    Genie.Semantics.all;
  (* Acceptance: the default exhaustion + link-fault regime exhibits
     every degradation mechanism, visible as typed trace counters —
     semantics fallback, backpressure rejection, pageout-reclaim retry,
     PDU loss with go-back-N recovery, and retransmission-cap give-up. *)
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " observed") true
        (List.assoc k o.F.events >= 1))
    [
      "sem_fallbacks"; "backpressure_rejects"; "reclaims"; "pdu_drops";
      "rel_recoveries"; "rel_gave_ups";
    ]

(* Both pressure knobs off: the degraded-mode machinery stays silent, so
   the checks are pure reads on the fault-free hot path. *)
let test_fault_free_regime_is_silent () =
  let o =
    F.run
      { F.default_config with steps = 300; seed = 7;
        exhaustion = false; link_faults = false }
  in
  (match o.F.stop with
  | F.Completed -> ()
  | F.Violations vs ->
    Alcotest.failf "invariant violations:\n%s"
      (String.concat "\n" (List.map I.violation_to_string vs)));
  List.iter
    (fun k ->
      Alcotest.(check int) (k ^ " absent") 0 (List.assoc k o.F.events))
    [
      (* [pdu_corrupts] stays out: the base schedule's CRC-corruption
         action runs in every regime. *)
      "backpressure_rejects"; "reclaims"; "pdu_drops"; "pdu_dups";
      "pdu_delays"; "rel_retransmits"; "rel_gave_ups";
    ]

let fuzz_random_seeds =
  QCheck.Test.make ~name:"short fuzz schedules hold every invariant" ~count:6
    QCheck.(int_bound 100_000)
    (fun seed ->
      let o = F.run { F.default_config with steps = 120; seed } in
      match o.F.stop with F.Completed -> true | F.Violations _ -> false)

(* Two seeds of [fuzz_random_seeds]' range that once crashed with
   [Out_of_frames] under exhaustion: 52690 ran out of frames while
   mapping a moved-in send buffer, 90448 while an admitted output's
   reference walk paged in a page its own reclaim retry had paged out.
   Both now reject the transfer and run to completion. *)
let test_exhaustion_seed seed () =
  let o = F.run { F.default_config with steps = 120; seed } in
  match o.F.stop with
  | F.Completed -> ()
  | F.Violations vs ->
    Alcotest.failf "seed %d violated invariants:\n%s" seed
      (String.concat "\n" (List.map I.violation_to_string vs))

(* Satellite: deterministic replay.  The schedule and the trace are pure
   functions of the seed; distinct seeds diverge. *)
let test_replay_deterministic () =
  let fuzz seed = F.run { F.default_config with steps = 150; seed } in
  let o1 = fuzz 99 and o2 = fuzz 99 and o3 = fuzz 100 in
  Alcotest.(check (list string)) "same seed, same schedule" o1.F.schedule
    o2.F.schedule;
  Alcotest.(check (list string)) "same seed, same trace" o1.F.trace_tail
    o2.F.trace_tail;
  Alcotest.(check (list (pair string int))) "same seed, same event counts"
    o1.F.events o2.F.events;
  Alcotest.(check bool) "distinct seeds, distinct schedules" true
    (o1.F.schedule <> o3.F.schedule)

(* Satellite: batched-path replay.  The batch API shares the single Rng
   stream, so a batched run is just as pure a function of its seed —
   same schedule, same trace, same event counts, including the
   completion-queue overflow count ([ring_cq_overflows], named for the
   ring the queue replaced).  The same seed with batching off must
   still complete (the isolation regime behind [--no-batch]). *)
let test_batched_replay_event_counts () =
  let fuzz batch = F.run { F.default_config with steps = 400; seed = 42; batch } in
  let o1 = fuzz true and o2 = fuzz true in
  (match o1.F.stop with
  | F.Completed -> ()
  | F.Violations vs ->
    Alcotest.failf "batched run violated invariants:\n%s"
      (String.concat "\n" (List.map I.violation_to_string vs)));
  Alcotest.(check (list (pair string int)))
    "same seed, same event counts under batching" o1.F.events o2.F.events;
  Alcotest.(check (list string)) "same seed, same batched schedule"
    o1.F.schedule o2.F.schedule;
  Alcotest.(check bool) "batch path actually exercised" true
    (List.exists (fun line -> contains line "batched") o1.F.schedule);
  Alcotest.(check bool) "completions reaped" true
    (List.exists (fun line -> contains line "reap") o1.F.schedule);
  let o3 = fuzz false in
  (match o3.F.stop with
  | F.Completed -> ()
  | F.Violations vs ->
    Alcotest.failf "sequential isolation run violated invariants:\n%s"
      (String.concat "\n" (List.map I.violation_to_string vs)));
  Alcotest.(check bool) "isolation regime avoids the batch path" true
    (not (List.exists (fun line -> contains line "batched") o3.F.schedule))

(* Satellite: storage-regime replay.  File writes, reads, fsyncs and
   sendfile drive writeback and eviction through the page cache; the
   run stays a pure function of its seed, the store counters land in
   the audited event set and the replay digest, and the same seed with
   storage off must still complete (the regime behind [--no-storage]). *)
let test_storage_replay_digest () =
  let fuzz storage =
    F.run { F.default_config with steps = 500; seed = 11; storage }
  in
  let o1 = fuzz true and o2 = fuzz true in
  (match o1.F.stop with
  | F.Completed -> ()
  | F.Violations vs ->
    Alcotest.failf "storage run violated invariants:\n%s"
      (String.concat "\n" (List.map I.violation_to_string vs)));
  Alcotest.(check string) "same seed, same replay digest" o1.F.digest
    o2.F.digest;
  Alcotest.(check (list (pair string int)))
    "same seed, same event counts under storage" o1.F.events o2.F.events;
  Alcotest.(check bool) "storage ops were scheduled" true (o1.F.storage_ops > 10);
  (* the cache actually worked: hits, misses and writebacks all observed *)
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " observed") true
        (List.assoc k o1.F.events >= 1))
    [ "cache_hits"; "cache_misses"; "writebacks"; "disk_writes" ];
  let o3 = fuzz false in
  (match o3.F.stop with
  | F.Completed -> ()
  | F.Violations vs ->
    Alcotest.failf "no-storage run violated invariants:\n%s"
      (String.concat "\n" (List.map I.violation_to_string vs)));
  Alcotest.(check int) "no storage ops with the regime off" 0 o3.F.storage_ops;
  Alcotest.(check bool) "distinct digest without storage" true
    (o1.F.digest <> o3.F.digest)

(* The checker actually catches broken kernels: with I/O-deferred page
   deallocation disabled, a TCOW displacement during an in-flight
   emulated-copy output frees a frame the adapter's gather descriptor
   still references, and io-desc-safety must say so, naming the frame. *)
let broken_scenario () =
  let w = Genie.World.create () in
  let ea, _eb =
    Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux
  in
  let sa = Genie.Host.new_space w.Genie.World.a in
  let region = As.map_region sa ~npages:2 in
  let buf =
    Genie.Buf.make sa ~addr:(As.base_addr region ~page_size:4096) ~len:8192
  in
  Genie.Buf.fill_pattern buf ~seed:1;
  ignore
    (Genie.Endpoint.output ea ~sem:Genie.Semantics.emulated_copy ~buf ());
  (* output still in flight: this write hits the TCOW protection and
     displaces a frame with a pending output reference *)
  As.write sa ~addr:buf.Genie.Buf.addr (Bytes.make 4 'X');
  I.check_host w.Genie.World.a

let test_broken_invariant_caught () =
  Fun.protect
    ~finally:(fun () -> Memory.Phys_mem.skip_deferred_dealloc := false)
    (fun () ->
      Memory.Phys_mem.skip_deferred_dealloc := true;
      let vs = broken_scenario () in
      Alcotest.(check bool) "violations reported" true (vs <> []);
      let named =
        List.filter (fun v -> v.I.invariant = "io-desc-safety") vs
      in
      Alcotest.(check bool) "io-desc-safety fired" true (named <> []);
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (Printf.sprintf "subject %S names a frame" v.I.subject)
            true
            (String.length v.I.subject > 6
            && String.sub v.I.subject 0 6 = "frame#"))
        named)

let test_deferred_dealloc_keeps_invariants () =
  (* control: the same scenario with deferred deallocation intact is
     clean — the displaced frame parks as a zombie instead *)
  Alcotest.(check (list string))
    "no violations" []
    (List.map I.violation_to_string (broken_scenario ()))

(* The fuzzer's failure path: with deferred deallocation off, seed 3
   stops at its first failing check with the violations, the schedule so
   far, both hosts' trace tails and a digest that replays the stop. *)
let test_fuzz_failure_path () =
  let o =
    Fun.protect
      ~finally:(fun () -> Memory.Phys_mem.skip_deferred_dealloc := false)
      (fun () ->
        Memory.Phys_mem.skip_deferred_dealloc := true;
        F.run { F.default_config with steps = 200; seed = 3 })
  in
  Alcotest.(check int) "stops at step" 20 o.F.steps_run;
  (match o.F.stop with
  | F.Completed -> Alcotest.fail "the broken kernel passed every check"
  | F.Violations vs ->
    Alcotest.(check int) "violations" 8 (List.length vs);
    Alcotest.(check string) "first violation"
      "[free-list] host-a frame#151: free frame carries I/O references (in=0 out=1)"
      (I.violation_to_string (List.hd vs)));
  Alcotest.(check int) "schedule entries" 25 (List.length o.F.schedule);
  Alcotest.(check int) "trace tail lines" 96 (List.length o.F.trace_tail);
  Alcotest.(check string) "digest" "8d85c9e51c47a0b4b4852019e38a9674" o.F.digest

let test_violation_to_string () =
  let v =
    {
      I.invariant = "free-list";
      host = "host-a";
      subject = "frame#3";
      detail = "free frame is mapped";
    }
  in
  Alcotest.(check string) "rendering"
    "[free-list] host-a frame#3: free frame is mapped"
    (I.violation_to_string v)

let suite =
  [
    Alcotest.test_case "catalogue complete and clean on fresh world" `Quick
      test_catalogue;
    Alcotest.test_case "2000-step fuzz holds all invariants" `Slow
      test_long_fuzz;
    QCheck_alcotest.to_alcotest fuzz_random_seeds;
    Alcotest.test_case "seed 52690: send buffer mapping out of frames" `Quick
      (test_exhaustion_seed 52690);
    Alcotest.test_case "seed 90448: output reference walk out of frames" `Quick
      (test_exhaustion_seed 90448);
    Alcotest.test_case "fault-free regime keeps degraded mode silent" `Quick
      test_fault_free_regime_is_silent;
    Alcotest.test_case "seed replay is deterministic" `Quick
      test_replay_deterministic;
    Alcotest.test_case "batched replay keeps event counts equal" `Quick
      test_batched_replay_event_counts;
    Alcotest.test_case "storage replay keeps the digest stable" `Quick
      test_storage_replay_digest;
    Alcotest.test_case "broken deferred-dealloc is caught" `Quick
      test_broken_invariant_caught;
    Alcotest.test_case "deferred dealloc keeps invariants" `Quick
      test_deferred_dealloc_keeps_invariants;
    Alcotest.test_case "violation rendering" `Quick test_violation_to_string;
    Alcotest.test_case "broken deferred-dealloc stops a fuzz run" `Quick
      test_fuzz_failure_path;
  ]
