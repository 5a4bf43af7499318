(* Typed kernel-path trace tests: stage spans for one transfer, span
   nesting under fuzzer fault schedules, counters cross-checked against
   the decoded charge events, and the Chrome-trace exporter round-tripped
   through the JSON layer. *)

module As = Vm.Address_space
module Sem = Genie.Semantics
module T = Simcore.Tracer

let light = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166

let traced_world () =
  let trace = T.create ~enabled:true () in
  (trace, Genie.World.create ~trace ~spec_a:light ~spec_b:light ())

let make_buf host ~npages ~len =
  let space = Genie.Host.new_space host in
  let region = As.map_region space ~npages in
  Genie.Buf.make space ~addr:(As.base_addr region ~page_size:4096) ~len

let traced_transfer ?(len = 8192) sem =
  let trace, w = traced_world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let npages = ((len + 4095) / 4096) + 1 in
  let rbuf = make_buf w.Genie.World.b ~npages ~len in
  ignore
    (Genie.Endpoint.input eb ~sem ~spec:(Genie.Input_path.App_buffer rbuf)
       ~on_complete:(fun _ -> ()));
  let buf = make_buf w.Genie.World.a ~npages ~len in
  Genie.Buf.fill_pattern buf ~seed:1;
  ignore (Genie.Endpoint.output ea ~sem ~buf ());
  Genie.World.run w;
  (trace, w)

let named name (ev : T.event) = ev.T.name = name
let on_host host (ev : T.event) = ev.T.host = host

let find_one what pred events =
  match List.filter pred events with
  | [ ev ] -> ev
  | l -> Alcotest.failf "%s: expected exactly one event, got %d" what (List.length l)

let str_arg (ev : T.event) key =
  match List.assoc_opt key ev.T.args with
  | Some (T.Str s) -> s
  | _ -> Alcotest.failf "event %s: missing string arg %s" ev.T.name key

let bool_arg (ev : T.event) key =
  match List.assoc_opt key ev.T.args with
  | Some (T.Bool b) -> b
  | _ -> Alcotest.failf "event %s: missing bool arg %s" ev.T.name key

let test_output_path_span () =
  let trace, _ = traced_transfer Sem.emulated_copy in
  let events = List.filter (on_host "host-a") (T.typed_events trace) in
  let b = find_one "output.path begin" (fun ev ->
      named "output.path" ev && match ev.T.kind with T.Begin _ -> true | _ -> false)
      events
  in
  let e = find_one "output.path end" (fun ev ->
      named "output.path" ev && match ev.T.kind with T.End _ -> true | _ -> false)
      events
  in
  (match (b.T.kind, e.T.kind) with
  | T.Begin ib, T.End ie -> Alcotest.(check int) "span ids match" ib ie
  | _ -> assert false);
  Alcotest.(check string) "effective semantics recorded" "emulated copy"
    (str_arg b "sem");
  Alcotest.(check string) "subsystem" "genie" (T.subsystem_name b.T.sub);
  (* The dispose instant fires inside the span. *)
  let disp = find_one "output.dispose" (named "output.dispose") events in
  Alcotest.(check bool) "dispose after begin" true (disp.T.seq > b.T.seq);
  Alcotest.(check bool) "dispose before end" true (disp.T.seq < e.T.seq);
  (* The span covers sim time: end strictly after begin. *)
  Alcotest.(check bool) "span has duration" true
    (Simcore.Sim_time.compare b.T.time e.T.time < 0)

let test_input_pipeline_order () =
  let trace, _ = traced_transfer Sem.emulated_copy in
  let events = List.filter (on_host "host-b") (T.typed_events trace) in
  let ready = find_one "input.ready" (named "input.ready") events in
  let disp = find_one "input.dispose" (named "input.dispose") events in
  let comp = find_one "input.complete" (named "input.complete") events in
  Alcotest.(check bool) "ready overlaps arrival (before dispose)" true
    (Simcore.Sim_time.compare ready.T.time disp.T.time < 0);
  Alcotest.(check bool) "completion delivered ok" true (bool_arg comp "ok");
  Alcotest.(check string) "completion semantics" "emulated copy"
    (str_arg comp "sem");
  let b = find_one "input.path begin" (fun ev ->
      named "input.path" ev && match ev.T.kind with T.Begin _ -> true | _ -> false)
      events
  in
  let e = find_one "input.path end" (fun ev ->
      named "input.path" ev && match ev.T.kind with T.End _ -> true | _ -> false)
      events
  in
  Alcotest.(check bool) "input span brackets the stages" true
    (b.T.seq < ready.T.seq && ready.T.seq < e.T.seq && comp.T.seq < e.T.seq)

let test_in_place_has_no_ready_stage () =
  let trace, _ = traced_transfer Sem.emulated_share in
  Alcotest.(check bool) "no aligned-buffer ready stage" true
    (not (List.exists (named "input.ready") (T.typed_events trace)))

let test_conversion_visible_in_trace () =
  (* Short emulated-copy output is traced as copy (post-conversion). *)
  let trace, _ = traced_transfer ~len:100 Sem.emulated_copy in
  let b = find_one "output.path begin" (fun ev ->
      named "output.path" ev && match ev.T.kind with T.Begin _ -> true | _ -> false)
      (T.typed_events trace)
  in
  Alcotest.(check string) "traced as converted copy" "copy" (str_arg b "sem")

let test_tracing_disabled_is_silent () =
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let len = 8192 in
  let rbuf = make_buf w.Genie.World.b ~npages:3 ~len in
  ignore
    (Genie.Endpoint.input eb ~sem:Sem.copy
       ~spec:(Genie.Input_path.App_buffer rbuf)
       ~on_complete:(fun _ -> ()));
  let buf = make_buf w.Genie.World.a ~npages:3 ~len in
  Genie.Buf.fill_pattern buf ~seed:1;
  ignore (Genie.Endpoint.output ea ~sem:Sem.copy ~buf ());
  Genie.World.run w;
  let tracer = w.Genie.World.a.Genie.Host.tracer in
  Alcotest.(check int) "no events" 0 (List.length (T.typed_events tracer));
  Alcotest.(check (list (triple string string int))) "no counters" []
    (T.counters tracer)

(* {1 Counters vs the decoded charge events} *)

let test_counters_match_charges () =
  let trace, w = traced_world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  List.iteri
    (fun i (sem, len) ->
      let npages = ((len + 4095) / 4096) + 1 in
      let rbuf = make_buf w.Genie.World.b ~npages ~len in
      ignore
        (Genie.Endpoint.input eb ~sem ~spec:(Genie.Input_path.App_buffer rbuf)
           ~on_complete:(fun _ -> ()));
      let buf = make_buf w.Genie.World.a ~npages ~len in
      Genie.Buf.fill_pattern buf ~seed:i;
      ignore (Genie.Endpoint.output ea ~sem ~buf ()))
    [ (Sem.copy, 1024); (Sem.emulated_copy, 16384); (Sem.share, 8192) ];
  Genie.World.run w;
  (* One (bytes, count) per charge event of [host] for any of [ops]. *)
  let charged host ops =
    List.filter_map
      (fun (ev : T.event) ->
        match Genie.Ops.sample ev with
        | Some (op, bytes, _, n) when ev.T.host = host && List.mem op ops ->
          Some (bytes, n)
        | _ -> None)
      (T.typed_events trace)
  in
  let check_host host =
    let name = host.Genie.Host.name in
    let copies =
      charged name [ Machine.Cost_model.Copyin; Machine.Cost_model.Copyout ]
    in
    Alcotest.(check int) (name ^ ": copies = charged copy ops")
      (List.fold_left (fun acc (_, n) -> acc + n) 0 copies)
      (T.counter trace ~host:name "copies");
    Alcotest.(check int) (name ^ ": copied_bytes = charged copy bytes")
      (List.fold_left (fun acc (bytes, n) -> acc + (n * bytes)) 0 copies)
      (T.counter trace ~host:name "copied_bytes");
    let wired_pages =
      List.fold_left
        (fun acc (bytes, n) -> acc + (n * (bytes / 4096)))
        0
        (charged name [ Machine.Cost_model.Wire ])
    in
    Alcotest.(check int) (name ^ ": wires = charged wired pages") wired_pages
      (T.counter trace ~host:name "wires")
  in
  check_host w.Genie.World.a;
  check_host w.Genie.World.b;
  (* The TCOW transfer wired sender pages; make sure the cross-check is
     not vacuous. *)
  Alcotest.(check bool) "sender wired pages" true
    (T.counter trace ~host:"host-a" "wires" > 0)

(* {1 Span nesting under fuzzer fault schedules} *)

let check_spans_well_formed events =
  (* Per (host, subsystem) stream: every End matches the most recent
     unmatched Begin id seen for that name is too strict (spans overlap
     across concurrent transfers), so check the weaker global contract:
     ids are unique per Begin, every End has a Begin with the same id and
     name, recorded earlier. *)
  let begins = Hashtbl.create 64 in
  let ended = Hashtbl.create 64 in
  List.iter
    (fun (ev : T.event) ->
      match ev.T.kind with
      | T.Begin id ->
        Alcotest.(check bool)
          (Printf.sprintf "span id %d unique" id)
          false (Hashtbl.mem begins id);
        Hashtbl.add begins id ev
      | T.End id ->
        (match Hashtbl.find_opt begins id with
        | None -> Alcotest.failf "end without begin: %s #%d" ev.T.name id
        | Some (b : T.event) ->
          Alcotest.(check string)
            (Printf.sprintf "span #%d name" id)
            b.T.name ev.T.name;
          Alcotest.(check bool)
            (Printf.sprintf "span #%d begin before end" id)
            true (b.T.seq < ev.T.seq));
        Alcotest.(check bool)
          (Printf.sprintf "span #%d ends once" id)
          false (Hashtbl.mem ended id);
        Hashtbl.add ended id ()
      | _ -> ())
    events

let test_span_nesting_under_fuzzer () =
  let trace = T.create () in
  let cfg = { Check.Fuzzer.default_config with steps = 300; seed = 11 } in
  let outcome = Check.Fuzzer.run ~trace cfg in
  (match outcome.Check.Fuzzer.stop with
  | Check.Fuzzer.Completed -> ()
  | Check.Fuzzer.Violations _ ->
    Alcotest.failf "fuzzer hit invariant violations:@.%s"
      (Format.asprintf "%a" Check.Fuzzer.pp_outcome outcome));
  let events = T.typed_events trace in
  Alcotest.(check bool) "fuzzer produced events" true (List.length events > 100);
  check_spans_well_formed events;
  (* After the drain every input span is closed: equal begin/end counts. *)
  let count k =
    List.length
      (List.filter
         (fun (ev : T.event) ->
           match (ev.T.kind, k) with
           | T.Begin _, `B | T.End _, `E -> true
           | _ -> false)
         events)
  in
  Alcotest.(check int) "all spans closed after drain" (count `B) (count `E);
  (* Sim time never runs backwards in recording order.  Complete events
     are exempt: they are stamped with the operation's start, which may
     precede the recording instant when the CPU queue is busy. *)
  let events =
    List.filter
      (fun (ev : T.event) ->
        match ev.T.kind with T.Complete _ -> false | _ -> true)
      events
  in
  let rec monotone = function
    | (a : T.event) :: (b : T.event) :: rest ->
      Alcotest.(check bool) "time monotone in recording order" true
        (Simcore.Sim_time.compare a.T.time b.T.time <= 0);
      monotone (b :: rest)
    | _ -> ()
  in
  monotone events;
  (* Fault injections leave counter traces: the schedule includes TCOW
     pokes and pageout pressure, so the VM counters must be live. *)
  Alcotest.(check bool) "faults counted" true
    (T.counter trace ~host:"host-a" "faults"
     + T.counter trace ~host:"host-b" "faults"
    > 0)

(* {1 Chrome-trace export round-trip} *)

let test_chrome_export_round_trip () =
  let trace, _ = traced_transfer Sem.emulated_copy in
  let s = Stats.Trace_export.to_chrome_string ~indent:1 trace in
  match Stats.Json.of_string s with
  | Error e -> Alcotest.failf "exporter output does not parse: %s" e
  | Ok json ->
    let events =
      match json with
      | Stats.Json.Obj fields ->
        (match List.assoc_opt "traceEvents" fields with
        | Some (Stats.Json.List l) -> l
        | _ -> Alcotest.fail "missing traceEvents list")
      | _ -> Alcotest.fail "top level is not an object"
    in
    let ph ev =
      match ev with
      | Stats.Json.Obj fields ->
        (match List.assoc_opt "ph" fields with
        | Some (Stats.Json.Str s) -> s
        | _ -> Alcotest.fail "event without ph")
      | _ -> Alcotest.fail "event is not an object"
    in
    let phases = List.map ph events in
    let n p = List.length (List.filter (String.equal p) phases) in
    Alcotest.(check bool) "has metadata" true (n "M" > 0);
    Alcotest.(check bool) "has complete events" true (n "X" > 0);
    Alcotest.(check int) "begin/end balanced" (n "b") (n "e");
    Alcotest.(check int) "typed events all exported"
      (List.length (T.typed_events trace))
      (List.length events - n "M")

(* {1 Counter probes} *)

(* The O(1) probe handle: reads and deltas track add_counter bumps in
   count-only mode (no events retained), deltas advance their own
   snapshot, and clear invalidates the probe's view. *)
let test_probe_reads_and_deltas () =
  let t = T.create () in
  T.enable_counters t;
  let s = T.scope t ~host:"a" ~sub:T.Genie in
  let p = T.probe t ~host:"a" [ "copies"; "cow_breaks" ] in
  Alcotest.(check (list string))
    "probe keeps its name order" [ "copies"; "cow_breaks" ] (T.probe_names p);
  Alcotest.(check int) "unbumped counter reads zero" 0 (T.probe_read p 0);
  T.add_counter s ~n:3 "copies";
  T.add_counter s "cow_breaks";
  Alcotest.(check int) "probe_read sees bumps" 3 (T.probe_read p 0);
  Alcotest.(check (array int)) "first delta counts from creation"
    [| 3; 1 |] (T.probe_delta p);
  Alcotest.(check (array int)) "delta advances its snapshot" [| 0; 0 |]
    (T.probe_delta p);
  T.add_counter s ~n:2 "copies";
  Alcotest.(check (array int)) "next delta sees only new bumps" [| 2; 0 |]
    (T.probe_delta p);
  Alcotest.(check int) "probe_read is cumulative" 5 (T.probe_read p 0);
  (* A probe for a different host is pinned to different cells. *)
  let pb = T.probe t ~host:"b" [ "copies" ] in
  Alcotest.(check int) "per-host isolation" 0 (T.probe_read pb 0);
  Alcotest.(check (list string)) "count-only mode records no events" []
    (List.map (fun ev -> ev.T.name) (T.typed_events t))

let test_probe_after_clear () =
  let t = T.create () in
  T.enable_counters t;
  let s = T.scope t ~host:"a" ~sub:T.Genie in
  let p = T.probe t ~host:"a" [ "copies" ] in
  T.add_counter s ~n:4 "copies";
  Alcotest.(check int) "before clear" 4 (T.probe_read p 0);
  T.clear t;
  T.add_counter s ~n:1 "copies";
  Alcotest.(check int) "table restarts from the clear" 1
    (T.counter t ~host:"a" "copies");
  let p' = T.probe t ~host:"a" [ "copies" ] in
  Alcotest.(check int) "a fresh probe tracks the new cells" 1
    (T.probe_read p' 0)

(* {1 Tail and render} *)

let test_render () =
  let t = T.create ~enabled:true () in
  let s = T.scope t ~host:"a" ~sub:T.Store in
  T.instant s ~args:[ ("fd", T.Int 3); ("mode", T.Str "seq") ] "file_read";
  T.add_counter s ~n:2 "cache_hits";
  match T.typed_events t with
  | [ ev_read; ev_ctr ] ->
    Alcotest.(check string)
      "instant rendering" "[a/store] file_read fd=3 mode=seq" (T.render ev_read);
    Alcotest.(check string)
      "counter rendering" "[a/store] cache_hits = 2 delta=2" (T.render ev_ctr)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_tail () =
  let t = T.create ~enabled:true () in
  let s = T.scope t ~host:"h" ~sub:T.Sim in
  List.iter (fun i -> T.instant s (string_of_int i)) [ 1; 2; 3; 4; 5 ];
  let names evs = List.map (fun ev -> ev.T.name) evs in
  Alcotest.(check (list string)) "last three, oldest first" [ "3"; "4"; "5" ]
    (names (T.tail t 3));
  Alcotest.(check (list string)) "n beyond length gives everything"
    [ "1"; "2"; "3"; "4"; "5" ]
    (names (T.tail t 10));
  Alcotest.(check (list string)) "zero gives nothing" [] (names (T.tail t 0))

(* {1 Tracing never changes a result}

   Table 6 is fitted from traced probes while Figures 3-7 come from
   untraced ones, so an enabled tracer must not move a single bit. *)

let probe_setups =
  [
    (Net.Adapter.Early_demux, 0);
    (Net.Adapter.Pooled, Proto.Dgram_header.length);
    (Net.Adapter.Pooled, 0);
    (Net.Adapter.Outboard, 0);
  ]

let probe_traced_equals_untraced =
  QCheck.Test.make ~name:"a probe's outcome is equal traced and untraced" ~count:64
    QCheck.(
      triple (int_bound 7) (int_bound 3)
        (oneofl [ 64; 1_700; 4_096; 6_000; 16_384; 61_440 ]))
    (fun (si, mi, len) ->
      let mode, recv_offset = List.nth probe_setups mi in
      let cfg =
        {
          (Workload.Latency_probe.default ~sem:(List.nth Sem.all si) ~len) with
          mode;
          recv_offset;
          spec = light;
        }
      in
      let bits (o : Workload.Latency_probe.outcome) =
        Printf.sprintf "%h/%h/%h" o.one_way_us o.rtt_us o.cpu_busy_fraction
      in
      let trace = T.create ~enabled:true () in
      let traced = Workload.Latency_probe.run ~trace cfg in
      T.typed_events trace <> []
      && bits traced = bits (Workload.Latency_probe.run cfg))

(* Checking once at the end keeps this cheap; checking reads state and
   never moves the digest. *)
let test_fuzz_traced_equals_untraced () =
  let cfg =
    { Check.Fuzzer.default_config with steps = 300; seed = 1; check_every = 300 }
  in
  let plain = Check.Fuzzer.run cfg in
  let trace = T.create () in
  let traced = Check.Fuzzer.run ~trace cfg in
  Alcotest.(check bool) "the shared tracer saw the run" true (T.typed_events trace <> []);
  List.iter
    (fun (o : Check.Fuzzer.outcome) ->
      Alcotest.(check string) "pinned digest" "2ae504eeae370a2c6f41862daee77758"
        o.digest)
    [ plain; traced ];
  Alcotest.(check (list (pair string int))) "same events" plain.events traced.events

let suite =
  [
    Alcotest.test_case "output path span and dispose ordering" `Quick
      test_output_path_span;
    Alcotest.test_case "input pipeline order" `Quick test_input_pipeline_order;
    Alcotest.test_case "in-place input has no ready stage" `Quick
      test_in_place_has_no_ready_stage;
    Alcotest.test_case "threshold conversion visible" `Quick
      test_conversion_visible_in_trace;
    Alcotest.test_case "tracing disabled is silent" `Quick
      test_tracing_disabled_is_silent;
    Alcotest.test_case "counters match the operation recorder" `Quick
      test_counters_match_charges;
    Alcotest.test_case "span nesting under fuzzer fault schedules" `Quick
      test_span_nesting_under_fuzzer;
    Alcotest.test_case "chrome export round-trips through Stats.Json" `Quick
      test_chrome_export_round_trip;
    Alcotest.test_case "probe reads and deltas track counter bumps" `Quick
      test_probe_reads_and_deltas;
    Alcotest.test_case "clear invalidates probes; fresh probe recovers" `Quick
      test_probe_after_clear;
    Alcotest.test_case "render formats scope, kind and args" `Quick test_render;
    Alcotest.test_case "tail returns recent events oldest first" `Quick
      test_tail;
    QCheck_alcotest.to_alcotest probe_traced_equals_untraced;
    Alcotest.test_case "a fuzz run's digest is equal traced and untraced" `Quick
      test_fuzz_traced_equals_untraced;
  ]
