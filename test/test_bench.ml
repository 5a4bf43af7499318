(* Tests for the benchmark-result subsystem: the self-contained JSON
   emitter/parser, Bench_result round-trips, the committed baselines,
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

(* {1 Bench_result round-trip} *)

let sample_result () =
  let c = R.create_collector ~section:"unit_test" () in
  R.set_created c "2026-01-01T00:00:00Z";
  R.scalar c ~name:"a.latency_us" ~unit_:"us" 1.5;
  R.scalar c ~name:"b.throughput_mbps" ~unit_:"Mbps" ~better:R.Higher 133.7;
  R.scalar c ~name:"c.events" ~unit_:"count" 250.;
  R.scalar c ~name:"d.calib" ~unit_:"us/B" ~better:R.Neutral 0.018;
  R.result c

let test_bench_result_roundtrip () =
  let t = sample_result () in
  match R.of_string (R.to_string t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    Alcotest.(check string) "section" t.R.section t'.R.section;
    Alcotest.(check (option string)) "created" t.R.created t'.R.created;
    Alcotest.(check int) "metric count" (List.length t.R.metrics)
      (List.length t'.R.metrics);
    List.iter2
      (fun (m : R.metric) (m' : R.metric) ->
        Alcotest.(check string) "name" m.R.name m'.R.name;
        Alcotest.(check string) "unit" m.R.unit_ m'.R.unit_;
        Alcotest.(check bool) "better" true (m.R.better = m'.R.better);
        Alcotest.(check (float 0.)) "value" m.R.value m'.R.value)
      t.R.metrics t'.R.metrics

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
    (Invalid_argument "Bench_result.scalar: duplicate metric \"m\"") (fun () ->
      R.scalar c ~name:"m" ~unit_:"us" 2.);
  (* A non-finite value is a broken run: it fails loudly instead of
     vanishing from the result. *)
  Alcotest.check_raises "nan value"
    (Invalid_argument "Bench_result.scalar: non-finite value in \"n\"") (fun () ->
      R.scalar c ~name:"n" ~unit_:"us" Float.nan);
  Alcotest.check_raises "infinite value"
    (Invalid_argument "Bench_result.scalar: non-finite value in \"i\"") (fun () ->
      R.scalar c ~name:"i" ~unit_:"us" Float.infinity);
  Alcotest.(check int) "nothing recorded" 1 (List.length (R.result c).R.metrics)

let test_bench_result_rejects_bad_schema () =
  let rejected input =
    match R.of_string input with
    | Error e -> e
    | Ok _ -> Alcotest.failf "accepted %S" input
  in
  ignore (rejected "{\"schema_version\": 999, \"section\": \"x\"}");
  ignore (rejected "not json at all");
  (* A file from before metrics became single values is refused with
     the command that rewrites it. *)
  Alcotest.(check string) "version 1"
    "schema_version 1 is no longer read; refresh the file with `genie_cli \
     bench run --out DIR`"
    (rejected {|{"schema_version": 1, "section": "s", "env": {}, "metrics": []}|})

(* Every committed baseline parses at the current schema, under its own
   section's file name, so a stale baseline fails here and not only in
   CI's compare gate. *)
let test_baselines_parse () =
  let dir = "../bench/baselines" in
  let files =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f -> Filename.check_suffix f ".json")
  in
  Alcotest.(check int) "baseline files" 18 (List.length files);
  List.iter
    (fun f ->
      match R.read (Filename.concat dir f) with
      | Error e -> Alcotest.fail e
      | Ok t ->
        Alcotest.(check string) "file name" (R.filename t.R.section) f;
        Alcotest.(check bool)
          (t.R.section ^ " is a registered section") true
          (List.mem t.R.section (Bench_sections.Sections.names ()));
        Alcotest.(check bool) (f ^ " has metrics") true (t.R.metrics <> []))
    files

(* The writer's schema: a metric is its name, unit, direction and one
   value, and nothing else (no seed, summary, samples or kind) is
   written beside them. *)
let test_writer_fields () =
  let keys = function
    | J.Obj fields -> List.map fst fields
    | _ -> Alcotest.fail "not an object"
  in
  match J.of_string (R.to_string (sample_result ())) with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    Alcotest.(check (list string)) "top-level keys"
      [ "schema_version"; "section"; "created"; "env"; "metrics" ] (keys j);
    Alcotest.(check (option int)) "schema_version" (Some 2)
      (Option.bind (J.member "schema_version" j) J.to_int);
    match Option.bind (J.member "metrics" j) J.to_list with
    | None -> Alcotest.fail "no metrics list"
    | Some ms ->
      Alcotest.(check int) "metric count" 4 (List.length ms);
      List.iter
        (fun m ->
          Alcotest.(check (list string)) "metric keys"
            [ "name"; "unit"; "better"; "value" ] (keys m))
        ms)

(* A metric the reader cannot take whole is refused, naming the metric
   and the field, rather than read as a partial value. *)
let test_malformed_metric_rejected () =
  let file metric =
    Printf.sprintf
      {|{"schema_version": 2, "section": "s", "env": {}, "metrics": [%s]}|} metric
  in
  let rejected metric =
    match R.of_string (file metric) with
    | Error e -> e
    | Ok _ -> Alcotest.failf "accepted %s" metric
  in
  Alcotest.(check string) "summary in place of value"
    "metric m: missing or non-numeric value"
    (rejected
       {|{"name": "m", "unit": "us", "better": "lower",
          "summary": {"mean": 1.0}, "samples": [1.0]}|});
  Alcotest.(check string) "string value" "metric m: missing or non-numeric value"
    (rejected {|{"name": "m", "unit": "us", "better": "lower", "value": "1.0"}|});
  Alcotest.(check string) "unknown better" "metric m: unknown better \"up\""
    (rejected {|{"name": "m", "unit": "us", "better": "up", "value": 1.0}|});
  Alcotest.(check string) "no name" "metric: missing or non-string \"name\""
    (rejected {|{"unit": "us", "better": "lower", "value": 1.0}|});
  (* A number written without a fraction is still a value. *)
  match
    R.of_string (file {|{"name": "m", "unit": "us", "better": "lower", "value": 3}|})
  with
  | Ok t ->
    Alcotest.(check (list (float 0.))) "integer value" [ 3. ]
      (List.map (fun m -> m.R.value) t.R.metrics)
  | Error e -> Alcotest.fail e

(* A file missing one of the top-level fields is refused with the
   field's name. *)
let test_incomplete_result_rejected () =
  let rejected input =
    match R.of_string input with
    | Error e -> e
    | Ok _ -> Alcotest.failf "accepted %S" input
  in
  Alcotest.(check string) "no version" "missing schema_version"
    (rejected {|{"section": "s", "env": {}, "metrics": []}|});
  Alcotest.(check string) "no section" "missing section"
    (rejected {|{"schema_version": 2, "env": {}, "metrics": []}|});
  Alcotest.(check string) "no env" "missing env"
    (rejected {|{"schema_version": 2, "section": "s", "metrics": []}|});
  Alcotest.(check string) "no metrics" "missing metrics"
    (rejected {|{"schema_version": 2, "section": "s", "env": {}}|})

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

(* The report [bench compare] prints: a header of counts, then each
   metric outside the threshold under its verdict, then the missing and
   new names.  A metric within the threshold is not listed. *)
let test_compare_render () =
  let base =
    result_with
      [ ("lat", R.Lower, 100.); ("tput", R.Higher, 50.); ("gone", R.Lower, 1.);
        ("same", R.Lower, 7.) ]
  in
  let cur =
    result_with
      [ ("lat", R.Lower, 110.); ("tput", R.Higher, 60.); ("same", R.Lower, 7.);
        ("fresh", R.Lower, 2.) ]
  in
  let report = Cmp.compare ~baseline:base ~current:cur () in
  match String.split_on_char '\n' (Cmp.render report) with
  | [] -> Alcotest.fail "empty report"
  | header :: rest ->
    Alcotest.(check string) "header"
      "section cmp: 3 metric(s) compared, 1 regression(s), 1 improvement(s), \
       1 missing, 1 new"
      header;
    let listed =
      List.filter_map
        (fun line ->
          match List.filter (( <> ) "") (String.split_on_char ' ' line) with
          | tag :: name :: _ -> Some (tag, name)
          | _ -> None)
        rest
    in
    Alcotest.(check (list (pair string string))) "listed metrics"
      [ ("REGRESSION", "lat"); ("improvement", "tput"); ("MISSING", "gone");
        ("new", "fresh") ]
      listed

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
  let values t = List.map (fun m -> (m.R.name, m.R.value)) t.R.metrics in
  List.iter
    (fun section ->
      let baseline =
        read (Printf.sprintf "../bench/baselines/BENCH_%s.json" section)
      in
      match Bench_sections.Sections.run_one ~out_dir:dir section with
      | Ok (Some path) ->
        let current = read path in
        Sys.remove path;
        Alcotest.(check (list (pair string (float 0.))))
          (section ^ " values") (values baseline) (values current)
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
    Alcotest.test_case "bench result round-trip" `Quick test_bench_result_roundtrip;
    Alcotest.test_case "bench result file round-trip" `Quick
      test_bench_result_file_roundtrip;
    Alcotest.test_case "collector guards" `Quick test_collector_guards;
    Alcotest.test_case "bad schema rejected" `Quick test_bench_result_rejects_bad_schema;
    Alcotest.test_case "every committed baseline parses" `Quick test_baselines_parse;
    Alcotest.test_case "writer emits only schema fields" `Quick test_writer_fields;
    Alcotest.test_case "malformed metric rejected" `Quick
      test_malformed_metric_rejected;
    Alcotest.test_case "incomplete result rejected" `Quick
      test_incomplete_result_rejected;
    Alcotest.test_case "compare identical" `Quick test_compare_identical;
    Alcotest.test_case "compare regression detected" `Quick
      test_compare_regression_detected;
    Alcotest.test_case "compare within threshold" `Quick test_compare_within_threshold;
    Alcotest.test_case "compare improvement fails" `Quick
      test_compare_improvement_fails;
    Alcotest.test_case "compare direction" `Quick test_compare_direction;
    Alcotest.test_case "compare missing metric" `Quick test_compare_missing_metric;
    Alcotest.test_case "compare zero baseline" `Quick test_compare_zero_baseline;
    Alcotest.test_case "compare report lists each verdict" `Quick test_compare_render;
    Alcotest.test_case "section self-compare" `Quick test_section_self_compare;
    Alcotest.test_case "tables 6 and 8 equal their baselines exactly" `Quick
      test_cost_tables_exact;
    Alcotest.test_case "table 6 per-op sample counts" `Quick
      test_table6_sample_counts;
  ]
