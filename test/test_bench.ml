(* Tests for the benchmark-result subsystem: the self-contained JSON
   emitter/parser, the sample-statistics math, Bench_result round-trips,
   and the compare gate's verdicts. *)

module J = Stats.Json
module R = Stats.Bench_result
module Cmp = Stats.Bench_compare

(* {1 JSON} *)

let test_json_escaping () =
  let s = J.to_string ~indent:0 (J.Str "a\"b\\c\nd\te\r\b\012\001z") in
  Alcotest.(check string) "escaped"
    "\"a\\\"b\\\\c\\nd\\te\\r\\b\\f\\u0001z\"" s;
  (* Escapes must parse back to the original string. *)
  match J.of_string s with
  | Ok (J.Str round) ->
    Alcotest.(check string) "round-trip" "a\"b\\c\nd\te\r\b\012\001z" round
  | Ok _ -> Alcotest.fail "parsed to non-string"
  | Error e -> Alcotest.fail e

let test_json_unicode_escape () =
  (* é is é; surrogate pair 😀 is U+1F600. *)
  match J.of_string {|["é", "😀"]|} with
  | Ok (J.List [ J.Str e; J.Str emoji ]) ->
    Alcotest.(check string) "two-byte" "\xc3\xa9" e;
    Alcotest.(check string) "four-byte" "\xf0\x9f\x98\x80" emoji
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.fail e

let test_json_numbers () =
  (match J.of_string "[0, -7, 3.25, 1e3, -2.5e-2]" with
  | Ok (J.List [ J.Int 0; J.Int (-7); J.Float a; J.Float b; J.Float c ]) ->
    Alcotest.(check (float 1e-12)) "3.25" 3.25 a;
    Alcotest.(check (float 1e-12)) "1e3" 1000. b;
    Alcotest.(check (float 1e-12)) "-2.5e-2" (-0.025) c
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.fail e);
  (* Floats always emit with '.' or exponent so they stay floats. *)
  match J.of_string (J.to_string (J.Float 42.)) with
  | Ok (J.Float f) -> Alcotest.(check (float 0.)) "float stays float" 42. f
  | Ok _ -> Alcotest.fail "float parsed back as non-float"
  | Error e -> Alcotest.fail e

let test_json_roundtrip_nested () =
  let v =
    J.Obj
      [
        ("name", J.Str "x");
        ("vals", J.List [ J.Float 1.5; J.Int 2; J.Null; J.Bool true ]);
        ("nested", J.Obj [ ("empty_list", J.List []); ("empty_obj", J.Obj []) ]);
      ]
  in
  (match J.of_string (J.to_string v) with
  | Ok parsed -> Alcotest.(check bool) "pretty round-trip" true (J.equal v parsed)
  | Error e -> Alcotest.fail e);
  match J.of_string (J.to_string ~indent:0 v) with
  | Ok parsed -> Alcotest.(check bool) "compact round-trip" true (J.equal v parsed)
  | Error e -> Alcotest.fail e

let json_float_roundtrip =
  QCheck.Test.make ~name:"json float round-trip is exact" ~count:200
    QCheck.(float_range (-1e15) 1e15)
    (fun f ->
      match J.of_string (J.to_string (J.Float f)) with
      | Ok (J.Float g) -> Float.equal f g
      | Ok (J.Int i) -> float_of_int i = f
      | _ -> false)

let test_json_errors () =
  let bad s =
    match J.of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "expected parse error for %S" s)
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "\"unterminated";
  bad "nul";
  bad "[1] garbage";
  bad "{\"a\": 1,}"

(* {1 Summary statistics} *)

let test_summary_known () =
  let s = Stats.Summary.of_samples [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check int) "n" 8 s.Stats.Summary.n;
  Alcotest.(check (float 1e-9)) "mean" 5. s.Stats.Summary.mean;
  (* Classic population-stddev example: exactly 2. *)
  Alcotest.(check (float 1e-9)) "stddev" 2. s.Stats.Summary.stddev;
  Alcotest.(check (float 1e-9)) "min" 2. s.Stats.Summary.min;
  Alcotest.(check (float 1e-9)) "max" 9. s.Stats.Summary.max;
  Alcotest.(check (float 1e-9)) "p50" 4.5 s.Stats.Summary.p50

let test_summary_single () =
  let s = Stats.Summary.of_samples [ 3.5 ] in
  Alcotest.(check int) "n" 1 s.Stats.Summary.n;
  Alcotest.(check (float 1e-9)) "mean" 3.5 s.Stats.Summary.mean;
  Alcotest.(check (float 1e-9)) "stddev" 0. s.Stats.Summary.stddev;
  Alcotest.(check (float 1e-9)) "p95" 3.5 s.Stats.Summary.p95

let test_summary_percentile () =
  (* 0..100 inclusive: p50 = 50, p95 = 95, exact by interpolation. *)
  let samples = List.init 101 float_of_int in
  Alcotest.(check (float 1e-9)) "p50" 50. (Stats.Summary.percentile samples 50.);
  Alcotest.(check (float 1e-9)) "p95" 95. (Stats.Summary.percentile samples 95.);
  Alcotest.(check (float 1e-9)) "p0" 0. (Stats.Summary.percentile samples 0.);
  Alcotest.(check (float 1e-9)) "p100" 100. (Stats.Summary.percentile samples 100.);
  (* Interpolated between ranks: [10;20] at p25 -> 12.5. *)
  Alcotest.(check (float 1e-9)) "interpolated" 12.5
    (Stats.Summary.percentile [ 20.; 10. ] 25.)

let test_summary_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_samples: empty sample list")
    (fun () -> ignore (Stats.Summary.of_samples []))

(* {1 Bench_result round-trip} *)

let sample_result () =
  let c = R.create_collector ~section:"unit_test" () in
  R.set_seed c 42;
  R.set_created c "2026-01-01T00:00:00Z";
  R.add c ~name:"a.latency_us" ~unit_:"us" [ 1.5; 2.5; 3.5 ];
  R.scalar c ~name:"b.throughput_mbps" ~unit_:"Mbps" ~better:R.Higher 133.7;
  R.scalar c ~name:"c.events" ~unit_:"count" 250.;
  R.scalar c ~name:"d.calib" ~unit_:"us/B" ~better:R.Neutral 0.018;
  R.result c

(* Committed baselines carry two fields the writer no longer emits:
   ["domains": 1] in the env stamp (from before the engine became
   sequential-only) and ["kind": "sim"] on every metric (from when
   wall-clock metrics existed).  Both must keep parsing. *)
let with_legacy_fields = function
  | J.Obj fields ->
    J.Obj
      (List.map
         (function
           | "env", J.Obj env -> ("env", J.Obj (env @ [ ("domains", J.Int 1) ]))
           | "metrics", J.List ms ->
             ( "metrics",
               J.List
                 (List.map
                    (function
                      | J.Obj m -> J.Obj (m @ [ ("kind", J.Str "sim") ]) | m -> m)
                    ms) )
           | kv -> kv)
         fields)
  | j -> j

let test_bench_result_roundtrip () =
  let t = sample_result () in
  let stamped = J.to_string (with_legacy_fields (R.to_json t)) in
  Alcotest.(check bool) "legacy fields added" true (stamped <> R.to_string t);
  List.iter
    (fun input ->
      match R.of_string input with
      | Error e -> Alcotest.fail e
      | Ok t' ->
        Alcotest.(check string) "section" t.R.section t'.R.section;
        Alcotest.(check (option int)) "seed" t.R.seed t'.R.seed;
        Alcotest.(check (option string)) "created" t.R.created t'.R.created;
        Alcotest.(check int) "metric count" (List.length t.R.metrics)
          (List.length t'.R.metrics);
        List.iter2
          (fun (m : R.metric) (m' : R.metric) ->
            Alcotest.(check string) "name" m.R.name m'.R.name;
            Alcotest.(check string) "unit" m.R.unit_ m'.R.unit_;
            Alcotest.(check bool) "better" true (m.R.better = m'.R.better);
            Alcotest.(check (list (float 0.))) "samples" m.R.samples m'.R.samples;
            Alcotest.(check (float 0.)) "mean" m.R.summary.Stats.Summary.mean
              m'.R.summary.Stats.Summary.mean)
          t.R.metrics t'.R.metrics)
    [ R.to_string t; stamped ]

let test_bench_result_file_roundtrip () =
  let t = sample_result () in
  let dir = Filename.temp_file "bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = R.write ~dir t in
  Alcotest.(check string) "filename" "BENCH_unit_test.json" (Filename.basename path);
  (match R.read path with
  | Ok t' -> Alcotest.(check string) "section" "unit_test" t'.R.section
  | Error e -> Alcotest.fail e);
  Sys.remove path;
  Sys.rmdir dir

let test_collector_guards () =
  let c = R.create_collector ~section:"s" () in
  R.scalar c ~name:"m" ~unit_:"us" 1.;
  Alcotest.check_raises "duplicate metric"
    (Invalid_argument "Bench_result.add: duplicate metric \"m\"") (fun () ->
      R.scalar c ~name:"m" ~unit_:"us" 2.);
  (* A non-finite sample is a broken run: it fails loudly instead of
     vanishing from the result. *)
  Alcotest.check_raises "nan sample"
    (Invalid_argument "Bench_result.add: non-finite sample in \"n\"") (fun () ->
      R.add c ~name:"n" ~unit_:"us" [ 1.; Float.nan ]);
  Alcotest.check_raises "infinite sample"
    (Invalid_argument "Bench_result.add: non-finite sample in \"i\"") (fun () ->
      R.scalar c ~name:"i" ~unit_:"us" Float.infinity);
  Alcotest.(check int) "nothing recorded" 1 (List.length (R.result c).R.metrics)

let test_bench_result_rejects_bad_schema () =
  (match R.of_string "{\"schema_version\": 999, \"section\": \"x\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted wrong schema_version");
  match R.of_string "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage"

(* A metric tagged with any kind but "sim" comes from the wall-clock
   gate that no longer exists; comparing it strictly would be wrong. *)
let test_wall_kind_rejected () =
  let wall =
    {|{"schema_version": 1, "section": "s", "env": {}, "metrics": [
       {"name": "w", "unit": "ns", "kind": "wall", "better": "lower",
        "summary": {"n": 1, "mean": 1.0, "stddev": 0.0, "min": 1.0,
                    "max": 1.0, "p50": 1.0, "p95": 1.0},
        "samples": [1.0]}]}|}
  in
  match R.of_string wall with
  | Error e -> Alcotest.(check string) "error" {|metric w: unsupported kind "wall"|} e
  | Ok _ -> Alcotest.fail "accepted a wall-kind metric"

(* {1 Compare} *)

let result_with metrics =
  let c = R.create_collector ~section:"cmp" () in
  List.iter
    (fun (name, better, v) -> R.scalar c ~name ~unit_:"us" ~better v)
    metrics;
  R.result c

let test_compare_identical () =
  let t = result_with [ ("a", R.Lower, 100.); ("b", R.Higher, 50.) ] in
  let report = Cmp.compare ~baseline:t ~current:t () in
  Alcotest.(check bool) "passes" true (Cmp.passed report);
  Alcotest.(check int) "no regressions" 0 (List.length (Cmp.regressions report))

let test_compare_regression_detected () =
  let base = result_with [ ("lat", R.Lower, 100.) ] in
  let cur = result_with [ ("lat", R.Lower, 101.) ] in
  (* +1% > strict 0.1% sim threshold. *)
  let report = Cmp.compare ~baseline:base ~current:cur () in
  Alcotest.(check bool) "fails" false (Cmp.passed report);
  Alcotest.(check int) "one regression" 1 (List.length (Cmp.regressions report))

let test_compare_within_threshold () =
  let base = result_with [ ("lat", R.Lower, 100.) ] in
  (* +0.05% is inside the 0.1% threshold. *)
  let cur = result_with [ ("lat", R.Lower, 100.05) ] in
  let report = Cmp.compare ~baseline:base ~current:cur () in
  Alcotest.(check bool) "passes" true (Cmp.passed report);
  (* +5% is not. *)
  let cur = result_with [ ("lat", R.Lower, 105.) ] in
  let report = Cmp.compare ~baseline:base ~current:cur () in
  Alcotest.(check bool) "+5% fails" false (Cmp.passed report)

(* A simulated result that moves changes the reproduction, whichever
   way it moves: it fails until the baseline is refreshed, and the
   report labels the direction. *)
let test_compare_improvement_fails () =
  let base = result_with [ ("lat", R.Lower, 100.); ("tput", R.Higher, 50.) ] in
  let cur = result_with [ ("lat", R.Lower, 80.); ("tput", R.Higher, 60.) ] in
  let report = Cmp.compare ~baseline:base ~current:cur () in
  Alcotest.(check bool) "fails" false (Cmp.passed report);
  Alcotest.(check int) "two improvements" 2 (List.length (Cmp.improvements report));
  Alcotest.(check int) "no regressions" 0 (List.length (Cmp.regressions report))

let test_compare_direction () =
  (* Higher-is-better: a drop is a regression. *)
  let base = result_with [ ("tput", R.Higher, 100.) ] in
  let cur = result_with [ ("tput", R.Higher, 90.) ] in
  let report = Cmp.compare ~baseline:base ~current:cur () in
  Alcotest.(check bool) "drop fails" false (Cmp.passed report);
  (* Neutral: drift in either direction is a regression. *)
  let base = result_with [ ("calib", R.Neutral, 100.) ] in
  let cur = result_with [ ("calib", R.Neutral, 90.) ] in
  let report = Cmp.compare ~baseline:base ~current:cur () in
  Alcotest.(check bool) "neutral drift fails" false (Cmp.passed report)

let test_compare_missing_metric () =
  let base = result_with [ ("a", R.Lower, 1.); ("b", R.Lower, 2.) ] in
  let cur = result_with [ ("a", R.Lower, 1.) ] in
  let report = Cmp.compare ~baseline:base ~current:cur () in
  Alcotest.(check bool) "missing fails" false (Cmp.passed report);
  Alcotest.(check (list string)) "missing name" [ "b" ] report.Cmp.missing;
  (* New metrics in current are informational, not failures. *)
  let report = Cmp.compare ~baseline:cur ~current:base () in
  Alcotest.(check bool) "extra passes" true (Cmp.passed report);
  Alcotest.(check (list string)) "extra name" [ "b" ] report.Cmp.extra

let test_compare_zero_baseline () =
  (* Baseline 0 -> any nonzero change is an infinite-percent drift. *)
  let base = result_with [ ("z", R.Lower, 0.) ] in
  let same = Cmp.compare ~baseline:base ~current:base () in
  Alcotest.(check bool) "0 vs 0 passes" true (Cmp.passed same);
  let cur = result_with [ ("z", R.Lower, 1.) ] in
  let report = Cmp.compare ~baseline:base ~current:cur () in
  Alcotest.(check bool) "0 -> 1 fails" false (Cmp.passed report)

(* A real section's collector output satisfies compare-against-self with
   zero regressions (the acceptance criterion, minus the CLI shell). *)
let test_section_self_compare () =
  let dir = Filename.temp_file "bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  (match Bench_sections.Sections.run_one ~out_dir:dir "related" with
  | Ok (Some path) ->
    (match R.read path with
    | Ok t ->
      let report = Cmp.compare ~baseline:t ~current:t () in
      Alcotest.(check bool) "self-compare passes" true (Cmp.passed report);
      Alcotest.(check bool) "has metrics" true (List.length t.R.metrics > 0)
    | Error e -> Alcotest.fail e);
    Sys.remove path
  | Ok None -> Alcotest.fail "related recorded no metrics"
  | Error e -> Alcotest.fail e);
  Sys.rmdir dir

(* Tables 6 and 8 are fitted from the tracer's charge events.  Their
   simulated metrics must equal the committed baselines to the last bit,
   not merely within the compare gate's 0.1%. *)
let test_cost_tables_exact () =
  let dir = Filename.temp_file "bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let read path = match R.read path with Ok t -> t | Error e -> Alcotest.fail e in
  let samples t = List.map (fun m -> (m.R.name, m.R.samples)) t.R.metrics in
  List.iter
    (fun section ->
      let baseline =
        read (Printf.sprintf "../bench/baselines/BENCH_%s.json" section)
      in
      match Bench_sections.Sections.run_one ~out_dir:dir section with
      | Ok (Some path) ->
        let current = read path in
        Sys.remove path;
        Alcotest.(check (list (pair string (list (float 0.)))))
          (section ^ " samples") (samples baseline) (samples current)
      | Ok None -> Alcotest.failf "%s recorded no metrics" section
      | Error e -> Alcotest.fail e)
    [ "table6"; "table8" ];
  Sys.rmdir dir

(* Table 6's per-op sample counts, which no baseline JSON records. *)
let table6_counts =
  [
    ("copyin", 256); ("copyout", 688); ("zero-fill", 176); ("reference", 3072);
    ("unreference", 2816); ("wire", 1280); ("unwire", 1280); ("read-only", 256);
    ("invalidate", 512); ("swap", 832); ("region create", 415);
    ("region remove", 256); ("region fill", 128);
    ("region fill & overlay refill", 128); ("region mark out", 1792);
    ("region mark in", 1536); ("region map", 256); ("region check", 512);
    ("region check, unreference, reinstate, mark in", 128);
    ("region check, unreference, mark in", 128); ("overlay allocate", 1024);
    ("overlay", 1024); ("overlay deallocate", 1024);
    ("system buffer allocate", 640); ("system buffer deallocate", 384);
    ("syscall entry", 4096); ("interrupt dispatch", 2048);
  ]

let test_table6_sample_counts () =
  let counts =
    List.map
      (fun (op, _, n) -> (Machine.Cost_model.op_name op, n))
      (Workload.Experiments.table6 ())
  in
  Alcotest.(check (list (pair string int))) "per-op samples" table6_counts counts;
  Alcotest.(check int) "total samples" 26_687
    (List.fold_left (fun acc (_, n) -> acc + n) 0 counts)

let suite =
  [
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escape;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    Alcotest.test_case "json nested round-trip" `Quick test_json_roundtrip_nested;
    QCheck_alcotest.to_alcotest json_float_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_errors;
    Alcotest.test_case "summary known values" `Quick test_summary_known;
    Alcotest.test_case "summary single sample" `Quick test_summary_single;
    Alcotest.test_case "summary percentiles" `Quick test_summary_percentile;
    Alcotest.test_case "summary empty" `Quick test_summary_empty;
    Alcotest.test_case "bench result round-trip" `Quick test_bench_result_roundtrip;
    Alcotest.test_case "bench result file round-trip" `Quick
      test_bench_result_file_roundtrip;
    Alcotest.test_case "collector guards" `Quick test_collector_guards;
    Alcotest.test_case "bad schema rejected" `Quick test_bench_result_rejects_bad_schema;
    Alcotest.test_case "wall kind rejected" `Quick test_wall_kind_rejected;
    Alcotest.test_case "compare identical" `Quick test_compare_identical;
    Alcotest.test_case "compare regression detected" `Quick
      test_compare_regression_detected;
    Alcotest.test_case "compare within threshold" `Quick test_compare_within_threshold;
    Alcotest.test_case "compare improvement fails" `Quick
      test_compare_improvement_fails;
    Alcotest.test_case "compare direction" `Quick test_compare_direction;
    Alcotest.test_case "compare missing metric" `Quick test_compare_missing_metric;
    Alcotest.test_case "compare zero baseline" `Quick test_compare_zero_baseline;
    Alcotest.test_case "section self-compare" `Quick test_section_self_compare;
    Alcotest.test_case "tables 6 and 8 equal their baselines exactly" `Quick
      test_cost_tables_exact;
    Alcotest.test_case "table 6 per-op sample counts" `Quick
      test_table6_sample_counts;
  ]
