(* One benchmark run: set-up, the measured closed loop, the correctness
   checks, and the report.  An untraced run reports the end-to-end
   metrics; a traced run (a separate invocation, same seeds and sizes)
   measures the same batches again under spans and adds the per-layer
   metrics.  Everything machine-readable goes through [Stats.Json]; the
   last stdout line is the result object. *)

module W = Workloads

type tracer_counts = {
  rx_pdus : int;
  faults : int;
  frame_allocs : int;
  events : int;
  last_event_ns : int;
}

type timed = {
  batch : W.batch;
  wall_ns : int;
  words : float;  (** words allocated by the batch *)
  minor_gcs : int;
  major_gcs : int;
  promoted_words : float;
  pause_ns : int;  (** GC pauses inside the batch; traced runs only *)
  tracer : tracer_counts option;  (** traced fuzz batches only *)
}

(* Batches [alloc_words_per_unit] averages over.  Every run makes at
   least these, so the figure repeats exactly for a seed. *)
let alloc_prefix = function
  | W.Fabric_bulk -> 4
  | W.Paper_probes -> 8
  | W.Fuzz_checked -> 8

let tracer_counts tr =
  let total name =
    List.fold_left
      (fun acc (_, n, v) -> if String.equal n name then acc + v else acc)
      0
      (Simcore.Tracer.counters tr)
  in
  {
    rx_pdus = total "rx_pdus";
    faults = total "faults";
    frame_allocs = total "frame_allocs";
    events = List.length (Simcore.Tracer.typed_events tr);
    last_event_ns =
      (match Simcore.Tracer.tail tr 1 with
      | [ e ] -> Simcore.Sim_time.to_ns e.Simcore.Tracer.time
      | _ -> 0);
  }

(* The closed loop: batch after batch until [seconds] have passed and at
   least [min_batches] are done, or [max_batches] are done. *)
let run_batches ?spans ?gc kind ~seed ~min_batches ~max_batches ~seconds =
  let deadline = Span.now_ns () + Float.to_int (seconds *. 1e9) in
  let rec go i acc =
    if i >= max_batches || (i >= min_batches && Span.now_ns () >= deadline)
    then List.rev acc
    else begin
      let trace =
        match (spans, kind) with
        | Some _, W.Fuzz_checked -> Some (Simcore.Tracer.create ~enabled:true ())
        | _ -> None
      in
      (* Every batch starts from a collected heap, as a fresh process
         would: the previous batch's garbage neither slows it nor lifts
         its peak. *)
      Gc.full_major ();
      let pauses () = Option.fold ~none:0 ~some:Gc_pauses.total_ns gc in
      let q0 = Gc.quick_stat () and g0 = pauses () in
      let w0 = Layers.words_now () and t0 = Span.now_ns () in
      let b = W.run_batch ?spans ?trace kind (W.entry kind ~seed i) in
      let wall_ns = Span.now_ns () - t0 and words = Layers.words_now () -. w0 in
      let q1 = Gc.quick_stat () and g1 = pauses () in
      let b =
        {
          b with
          W.problems =
            b.W.problems @ W.digest_problems ~recorded:(W.recorded kind) kind b;
        }
      in
      go (i + 1)
        ({
           batch = b;
           wall_ns;
           words;
           minor_gcs = q1.Gc.minor_collections - q0.Gc.minor_collections;
           major_gcs = q1.Gc.major_collections - q0.Gc.major_collections;
           promoted_words = q1.Gc.promoted_words -. q0.Gc.promoted_words;
           pause_ns = g1 - g0;
           tracer = Option.map tracer_counts trace;
         }
        :: acc)
    end
  in
  go 0 []

let setup_reps = 11

(* Median wall time of the one-unit instance. *)
let setup kind ~seed =
  let runs =
    List.init setup_reps (fun _ ->
        let t0 = Span.now_ns () in
        let problems = W.setup_unit kind ~seed in
        (float_of_int (Span.now_ns () - t0) /. 1e9, problems))
  in
  (Layers.median (List.map fst runs), List.sort_uniq compare (List.concat_map snd runs))

(* {1 End-to-end metrics} *)

type e2e = {
  setup_s : float;
  units : int;
  wall_ns : int;
  units_per_s : float;
      (** median over batches, so a burst of load from outside the
          process moves one batch, not the figure *)
  alloc_words_per_unit : float;
  peak_heap_mb : float;
  attempted : int;
  failed : int;
  problems : string list;
}

let sum_by f l = List.fold_left (fun acc x -> acc + f x) 0 l

let e2e kind ~setup_s ~setup_problems (runs : timed list) =
  let prefix = List.filteri (fun i _ -> i < alloc_prefix kind) runs in
  {
    setup_s;
    units = sum_by (fun r -> r.batch.W.units) runs;
    wall_ns = sum_by (fun (r : timed) -> r.wall_ns) runs;
    units_per_s =
      Layers.median
        (List.map
           (fun (r : timed) ->
             float_of_int r.batch.W.units /. (float_of_int (max 1 r.wall_ns) /. 1e9))
           runs);
    alloc_words_per_unit =
      List.fold_left (fun acc r -> acc +. r.words) 0. prefix
      /. float_of_int (max 1 (sum_by (fun r -> r.batch.W.units) prefix));
    peak_heap_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.;
    attempted = sum_by (fun r -> r.batch.W.attempted) runs;
    failed = sum_by (fun r -> r.batch.W.failed) runs;
    problems = setup_problems @ List.concat_map (fun r -> r.batch.W.problems) runs;
  }

let fail_frac e = float_of_int e.failed /. float_of_int (max 1 e.attempted)

(* The metrics BENCHMARK.json lists under end_to_end.  [fail_frac] is
   carried by the result's attempted/failed counts instead: it is zero
   on every workload, and a zero median admits no relative bound. *)
let end_to_end e =
  [
    ("setup_s", "s", e.setup_s);
    ("units_per_s", "1/s", e.units_per_s);
    ("alloc_words_per_unit", "words", e.alloc_words_per_unit);
    ("peak_heap_mb", "MB", e.peak_heap_mb);
  ]

let with_fail_frac e = end_to_end e @ [ ("fail_frac", "ratio", fail_frac e) ]

(* {1 Per-layer metrics} *)

(* Transfer sizes the fuzzer draws from (mirrors [Check.Fuzzer]'s
   internal list). *)
let fuzz_sizes =
  [ 1; 100; 279; 280; 281; 1000; 1665; 1666; 1667; 2177; 2178; 2179; 4095;
    4096; 4097; 8192; 12288; 16384 ]

(* Four lengths spread over the drawn population. *)
let spread lens =
  let a = Array.of_list (List.sort compare lens) in
  let n = Array.length a in
  List.sort_uniq compare (List.map (fun k -> a.(((2 * k) + 1) * n / 8)) [ 0; 1; 2; 3 ])

(* What the traced batches did, read from their outcomes and tracers. *)
type counts = {
  pdus : float;
  pdu_bytes : float;  (** mean bytes per PDU, header included *)
  worlds : float;  (** two-host worlds (or host pairs) built *)
  frame_allocs : float;
  faults : float;
  tracer_events : float;
  retries : float;
  degrades : float;
  transfers : float;
  cache_hits : float;
  cache_misses : float;
  accept_ratio : float;
  complete_ratio : float;
  lens : int list;
  spacing_ns : int;
}

let ratio a b = if b > 0. then a /. b else 0.
let hdr = float_of_int Proto.Dgram_header.length

let zero_counts =
  {
    pdus = 0.;
    pdu_bytes = 0.;
    worlds = 0.;
    frame_allocs = 0.;
    faults = 0.;
    tracer_events = 0.;
    retries = 0.;
    degrades = 0.;
    transfers = 0.;
    cache_hits = 0.;
    cache_misses = 0.;
    accept_ratio = 0.;
    complete_ratio = 0.;
    lens = [];
    spacing_ns = 1;
  }

let counts kind runs =
  let f = float_of_int in
  let results = List.map (fun r -> r.batch.W.result) runs in
  match kind with
  | W.Fabric_bulk ->
    let outs =
      List.filter_map (function W.Fabric_out o -> Some o | _ -> None) results
    in
    let s g = List.fold_left (fun acc o -> acc +. f (g o)) 0. outs in
    let chunk = W.Fabric.default.W.Fabric.chunk_bytes in
    let pdus = s (fun o -> (o.W.Fabric.rx_bytes / chunk) + o.W.Fabric.crc_failures) in
    let sim_ns =
      List.fold_left (fun acc o -> acc +. (o.W.Fabric.duration_us *. 1e3)) 0. outs
    in
    {
      zero_counts with
      pdus;
      pdu_bytes = f chunk +. hdr;
      worlds = f (List.length outs * W.Fabric.default.W.Fabric.ports);
      retries = s (fun o -> o.W.Fabric.retries);
      transfers = pdus;
      accept_ratio = ratio (s (fun o -> o.W.Fabric.accepted)) (s (fun o -> o.W.Fabric.offered));
      complete_ratio =
        ratio (s (fun o -> o.W.Fabric.completed)) (s (fun o -> o.W.Fabric.accepted));
      lens = [ chunk ];
      spacing_ns = Float.to_int (ratio sim_ns pdus);
    }
  | W.Paper_probes ->
    let probes =
      List.concat_map
        (function W.Probes_out a -> Array.to_list a | _ -> [])
        results
    in
    let ok =
      List.filter_map
        (fun (p, r) -> match r with Ok o -> Some (p, o) | Error _ -> None)
        probes
    in
    let n_ok = f (List.length ok) in
    let mean g = ratio (List.fold_left (fun acc x -> acc +. g x) 0. ok) n_ok in
    {
      zero_counts with
      pdus = n_ok *. f W.probe_pdus;
      pdu_bytes = mean (fun (p, _) -> f p.W.len) +. hdr;
      worlds = f (List.length probes);
      accept_ratio = ratio n_ok (f (List.length probes));
      complete_ratio = ratio n_ok (f (List.length probes));
      lens = spread (List.map (fun (p, _) -> p.W.len) probes);
      spacing_ns =
        Float.to_int (mean (fun (_, o) -> o.W.Probe.one_way_us *. 1e3));
    }
  | W.Fuzz_checked ->
    let outs =
      List.filter_map (function W.Fuzz_out o -> Some o | _ -> None) results
    in
    let tcs = List.filter_map (fun r -> r.tracer) runs in
    let t g = f (sum_by g tcs) in
    let s g = f (sum_by g outs) in
    let ev names o =
      sum_by
        (fun k -> Option.value ~default:0 (List.assoc_opt k o.W.Fuzzer.events))
        names
    in
    let started = s (fun o -> o.W.Fuzzer.transfers_started)
    and rejected = s (fun o -> o.W.Fuzzer.rejected) in
    let pdus = t (fun c -> c.rx_pdus) in
    {
      pdus;
      pdu_bytes = ratio (f (List.fold_left ( + ) 0 fuzz_sizes)) (f (List.length fuzz_sizes)) +. hdr;
      worlds = f (List.length outs);
      frame_allocs = t (fun c -> c.frame_allocs);
      faults = t (fun c -> c.faults);
      tracer_events = t (fun c -> c.events);
      retries = rejected;
      degrades = s (ev [ "sem_fallbacks"; "backpressure_rejects"; "reclaims" ]);
      transfers = started;
      cache_hits = s (ev [ "cache_hits" ]);
      cache_misses = s (ev [ "cache_misses" ]);
      accept_ratio = ratio started (started +. rejected);
      complete_ratio = ratio (s (fun o -> o.W.Fuzzer.transfers_completed)) started;
      lens = spread fuzz_sizes;
      spacing_ns = Float.to_int (ratio (t (fun c -> c.last_event_ns)) pdus);
    }

let profile kind c =
  let fz = W.Fuzzer.default_config in
  match kind with
  | W.Fuzz_checked ->
    {
      Layers.spec =
        { Machine.Machine_spec.micron_p166 with memory_mb = fz.W.Fuzzer.memory_mb };
      pool_frames = Some fz.W.Fuzzer.pool_frames;
      lens = c.lens;
      spacing_ns = c.spacing_ns;
    }
  | W.Fabric_bulk | W.Paper_probes ->
    { Layers.spec = W.probe_spec; pool_frames = None; lens = c.lens; spacing_ns = c.spacing_ns }

(* 1 - wall(check_every = steps) / wall(check_every = 1) on the run's
   first entry; both runs must reach the same digest. *)
let check_share spans kind runs =
  match (kind, runs) with
  | W.Fuzz_checked, first :: _ ->
    let cfg = W.fuzz_config ~steps:W.fuzz_steps first.batch.W.entry in
    Gc.full_major ();
    let t0 = Span.now_ns () in
    let o =
      Span.with_span spans "Check.Fuzzer.run check_every=steps" (fun () ->
          W.Fuzzer.run { cfg with W.Fuzzer.check_every = cfg.W.Fuzzer.steps })
    in
    let wall = Span.now_ns () - t0 in
    ( 1. -. (float_of_int wall /. float_of_int first.wall_ns),
      if String.equal o.W.Fuzzer.digest first.batch.W.digest then []
      else [ "check.share: unchecked run reached a different digest" ] )
  | _ -> (0., [])

let per_layer ~plain ~traced ~truns ~(costs : Layers.costs) ~c ~check_share =
  let units = float_of_int (max 1 traced.units)
  and wall = float_of_int (max 1 traced.wall_ns) in
  let pu x = x /. units in
  let total f = float_of_int (sum_by f truns) in
  let pause_ns = total (fun r -> r.pause_ns) in
  let net_share = 2. *. c.pdus *. c.pdu_bytes *. costs.crc_ns_per_byte /. wall in
  let memory_share =
    ((c.worlds *. (costs.world_create_ms -. costs.world_create_gc_ms) *. 1e6)
    +. (c.frame_allocs *. costs.frame_cycle_ns))
    /. wall
  in
  let gc_share = pause_ns /. wall in
  [
    ("net.crc32.ns_per_byte", "ns", costs.crc_ns_per_byte);
    ("net.aal5.ns_per_pdu", "ns", costs.aal5_ns_per_pdu);
    ("net.aal5.words_per_pdu", "words", costs.aal5_words_per_pdu);
    ("net.pdus_per_unit", "count", pu c.pdus);
    ("net.share", "ratio", net_share);
    ("memory.world_create_ms", "ms", costs.world_create_ms);
    ("memory.world_create_words", "words", costs.world_create_words);
    ("memory.frame_cycle_ns", "ns", costs.frame_cycle_ns);
    ("memory.share", "ratio", memory_share);
    ("gc.minor_per_unit", "count", pu (total (fun r -> r.minor_gcs)));
    ("gc.major_per_unit", "count", pu (total (fun r -> r.major_gcs)));
    ( "gc.promoted_words_per_unit",
      "words",
      pu (List.fold_left (fun acc r -> acc +. r.promoted_words) 0. truns) );
    ("gc.pause_frac", "ratio", gc_share);
    ("simcore.engine.ns_per_event", "ns", costs.engine_ns_per_event);
    ("simcore.tracer.ns_per_event", "ns", costs.tracer_ns_per_event);
    ("simcore.tracer.events_per_unit", "count", pu c.tracer_events);
  ]
  @ List.map
      (fun (sem, us) -> ("genie.datagram_us." ^ Layers.slug (Genie.Semantics.name sem), "us", us))
      costs.datagram_us
  @ [
      ("genie.output_us", "us", costs.output_us);
      ("genie.input_us", "us", costs.input_us);
      ("genie.flow_table.ns_per_cycle", "ns", costs.flow_table_ns_per_cycle);
      ("genie.retry_ratio", "ratio", ratio c.retries c.transfers);
      ("genie.degrade_per_transfer", "ratio", ratio c.degrades c.transfers);
      ("vm.map_remove_us", "us", costs.map_remove_us);
      ("vm.cow_break_us", "us", costs.cow_break_us);
      ("vm.wire_unwire_us", "us", costs.wire_unwire_us);
      ("vm.faults_per_unit", "count", pu c.faults);
    ]
  @ List.map (fun (name, us) -> ("check." ^ name ^ ".us_per_call", "us", us)) costs.check_us
  @ [
      ("check.check_world.us_per_call", "us", costs.check_world_us);
      ("check.share", "ratio", check_share);
      ("store.read_us", "us", costs.store_read_us);
      ("store.write_us", "us", costs.store_write_us);
      ("store.fsync_us", "us", costs.store_fsync_us);
      ("store.cache_hit_ratio", "ratio", ratio c.cache_hits (c.cache_hits +. c.cache_misses));
      ("stats.summary_add_ns", "ns", costs.summary_add_ns);
      ("workload.accept_ratio", "ratio", c.accept_ratio);
      ("workload.complete_ratio", "ratio", c.complete_ratio);
      ( "unexplained.share",
        "ratio",
        1. -. (net_share +. memory_share +. gc_share +. check_share) );
      ("trace.overhead_frac", "ratio", (plain.units_per_s /. traced.units_per_s) -. 1.);
    ]

(* {1 Report} *)

let env () =
  Stats.Json.Obj
    [
      ("nproc", Stats.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Stats.Json.Str Sys.ocaml_version);
      ("word_size", Stats.Json.Int Sys.word_size);
      ( "ocamlrunparam",
        Stats.Json.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")) );
    ]

let fmt v = Printf.sprintf "%.6g" v

let print_metrics title metrics =
  Printf.printf "\n%s\n" title;
  let t = Stats.Text_table.create ~header:[ "metric"; "value"; "unit" ] in
  List.iter (fun (n, u, v) -> Stats.Text_table.add_row t [ n; fmt v; u ]) metrics;
  Stats.Text_table.print t

let print_spans spans =
  Printf.printf "\nspans (self = duration minus child spans)\n";
  let t =
    Stats.Text_table.create
      ~header:[ "span"; "count"; "calls"; "total ms"; "self ms"; "us/call" ]
  in
  List.iter
    (fun (s : Span.summary) ->
      Stats.Text_table.add_row t
        [
          s.Span.s_name;
          string_of_int s.Span.count;
          string_of_int s.Span.s_calls;
          fmt (float_of_int s.Span.total_ns /. 1e6);
          fmt (float_of_int s.Span.self_ns /. 1e6);
          fmt (float_of_int s.Span.total_ns /. float_of_int (max 1 s.Span.s_calls) /. 1e3);
        ])
    (Span.summarize spans);
  Stats.Text_table.print t

let write_spans kind ~seed spans =
  let dir = "_perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" (W.name kind) seed)
  in
  let oc = open_out path in
  output_string oc
    (Stats.Json.to_string
       (Stats.Json.Obj
          [
            ("workload", Stats.Json.Str (W.name kind));
            ("seed", Stats.Json.Int seed);
            ("env", env ());
            ("spans", Span.to_json spans);
          ]));
  close_out oc;
  path

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;
}

let result_json o =
  Stats.Json.Obj
    [
      ("correct", Stats.Json.Bool o.correct);
      ("attempted", Stats.Json.Int o.attempted);
      ("failed", Stats.Json.Int o.failed);
      ( "metrics",
        Stats.Json.Obj
          (List.map
             (fun (n, u, v) ->
               (n, Stats.Json.Obj [ ("value", Stats.Json.Float v); ("unit", Stats.Json.Str u) ]))
             o.metrics) );
    ]

let finish ~problems ~attempted ~failed metrics =
  List.iter (fun p -> Printf.printf "INCORRECT: %s\n" p) problems;
  { correct = problems = []; attempted; failed; metrics }

let execute ?min_batches kind ~seed ~seconds ~trace =
  let min_batches = Option.value min_batches ~default:(alloc_prefix kind) in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\nenv %s\n%!" (W.name kind)
    seed seconds trace
    (Stats.Json.to_string ~indent:0 (env ()));
  let setup_s, setup_problems = setup kind ~seed in
  let runs =
    run_batches kind ~seed ~min_batches ~max_batches:max_int
      ~seconds:(if trace then seconds /. 2. else seconds)
  in
  let plain = e2e kind ~setup_s ~setup_problems runs in
  Printf.printf "%d batches, %d units in %.3f s\n" (List.length runs) plain.units
    (float_of_int plain.wall_ns /. 1e9);
  if not trace then begin
    print_metrics "end-to-end (untraced)" (with_fail_frac plain);
    finish ~problems:plain.problems ~attempted:plain.attempted ~failed:plain.failed
      (end_to_end plain)
  end
  else begin
    let spans = Span.create ~run:seed in
    let gc = Gc_pauses.start () in
    let n = List.length runs in
    let truns =
      run_batches ~spans ~gc kind ~seed ~min_batches:n ~max_batches:n ~seconds:0.
    in
    let traced = e2e kind ~setup_s ~setup_problems:[] truns in
    let c = counts kind truns in
    let costs =
      Layers.measure spans ~gc_ns:(fun () -> Gc_pauses.total_ns gc) (profile kind c)
    in
    let check_share, check_problems = check_share spans kind runs in
    let layers =
      per_layer ~plain ~traced ~truns ~costs ~c ~check_share
    in
    let t =
      Stats.Text_table.create
        ~header:[ "metric"; "untraced"; "traced"; "overhead"; "unit" ]
    in
    List.iter2
      (fun (n, u, a) (_, _, b) ->
        Stats.Text_table.add_row t
          [ n; fmt a; fmt b; Printf.sprintf "%+.2f%%" (100. *. ratio (b -. a) a); u ])
      (with_fail_frac plain) (with_fail_frac traced);
    Printf.printf "\nend-to-end, untraced beside traced (same batches)\n";
    Stats.Text_table.print t;
    let share name = List.assoc name (List.map (fun (n, _, v) -> (n, v)) layers) in
    Printf.printf
      "\nshares of traced wall time: net %.3f, memory %.3f, gc %.3f, check %.3f; \
       unexplained %.3f\n"
      (share "net.share") (share "memory.share") (share "gc.pause_frac")
      (share "check.share") (share "unexplained.share");
    if Gc_pauses.lost gc > 0 then
      Printf.printf "warning: %d runtime events lost; gc.pause_frac is a floor\n"
        (Gc_pauses.lost gc);
    print_spans spans;
    print_metrics "per-layer (traced)" layers;
    Printf.printf "\nspans written to %s\n" (write_spans kind ~seed spans);
    let problems =
      plain.problems @ traced.problems @ check_problems
      @
      if costs.Layers.check_violations > 0 then
        [ "check probe world violates its invariants" ]
      else []
    in
    finish ~problems ~attempted:(plain.attempted + traced.attempted)
      ~failed:(plain.failed + traced.failed) layers
  end

(* Print [Recorded]'s source: the digest of every catalog entry.  Rerun
   only when a change is meant to move simulated results. *)
let record () =
  print_string
    "(* Simulated-result digest of every catalog entry, in entry order.\n\
    \   Generated by `main.exe --record` (see perfbench/README.md);\n\
    \   regenerate only when a change is meant to move the simulated\n\
    \   results. *)\n";
  List.iter
    (fun kind ->
      Printf.printf "\nlet %s =\n  [|\n" (W.name kind);
      for j = 0 to W.catalog_size kind - 1 do
        let b = W.run_batch kind j in
        if b.W.problems <> [] then failwith (String.concat "; " b.W.problems);
        Printf.printf "    %S;\n%!" b.W.digest
      done;
      print_string "  |]\n")
    W.all
