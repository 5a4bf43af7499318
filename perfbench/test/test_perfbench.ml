(* The benchmark's own tests: every metric BENCHMARK.json names is
   printed with its unit, a new seed changes the inputs, the one-unit
   set-up path runs, and a tampered recorded digest fails the
   correctness check. *)

module B = Perfbench.Bench
module W = Perfbench.Workloads
module J = Stats.Json

let benchmark_json = "../../BENCHMARK.json"

let declared section =
  let text = In_channel.with_open_bin benchmark_json In_channel.input_all in
  match J.of_string text with
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  | Ok doc ->
    let entries = Option.bind (J.member section doc) J.to_list in
    List.map
      (fun m ->
        match
          ( Option.bind (J.member "name" m) J.to_str,
            Option.bind (J.member "unit" m) J.to_str )
        with
        | Some n, Some u -> (n, u)
        | _ -> Alcotest.failf "BENCHMARK.json: malformed %s entry" section)
      (Option.value ~default:[] entries)

(* The printed result object, parsed back: metric name -> unit. *)
let printed (o : B.outcome) =
  match J.of_string (J.to_string ~indent:0 (B.result_json o)) with
  | Error e -> Alcotest.failf "result is not JSON: %s" e
  | Ok doc -> (
    match J.member "metrics" doc with
    | Some (J.Obj fields) ->
      List.map
        (fun (n, v) ->
          (match Option.bind (J.member "value" v) J.to_float with
          | Some x when Float.is_finite x -> ()
          | _ -> Alcotest.failf "metric %s has no finite value" n);
          (n, Option.value ~default:"" (Option.bind (J.member "unit" v) J.to_str)))
        fields
    | _ -> Alcotest.fail "result has no metrics object")

let sorted = List.sort compare
let pairs = Alcotest.(list (pair string string))

let test_metrics_printed () =
  let run trace =
    B.execute ~min_batches:1 W.Paper_probes ~seed:1 ~seconds:0. ~trace
  in
  let untraced = run false and traced = run true in
  Alcotest.(check bool) "untraced run correct" true untraced.B.correct;
  Alcotest.(check bool) "traced run correct" true traced.B.correct;
  Alcotest.check pairs "end_to_end" (sorted (declared "end_to_end"))
    (sorted (printed untraced));
  Alcotest.check pairs "per_layer" (sorted (declared "per_layer"))
    (sorted (printed traced))

let test_seed_changes_inputs () =
  let first kind seed = W.entry kind ~seed 0 in
  let fabric seed = W.fabric_config ~flows:W.fabric_flows (first W.Fabric_bulk seed) in
  let probes seed = W.draw_probes (first W.Paper_probes seed) in
  Alcotest.(check bool) "same seed, same fabric inputs" true (fabric 1 = fabric 1);
  Alcotest.(check bool) "new seed, new fabric inputs" false (fabric 1 = fabric 2);
  Alcotest.(check bool) "same seed, same probes" true (probes 1 = probes 1);
  Alcotest.(check bool) "new seed, new probes" false (probes 1 = probes 2)

let test_setup_unit_runs () =
  List.iter
    (fun kind ->
      let setup_s, problems = B.setup kind ~seed:1 in
      Alcotest.(check (list string)) (W.name kind ^ " set-up problems") [] problems;
      Alcotest.(check bool) (W.name kind ^ " set-up time") true (setup_s > 0.))
    W.all

let test_tampered_digest_fails () =
  let kind = W.Paper_probes in
  let b = W.run_batch kind (W.entry kind ~seed:1 0) in
  let recorded = W.recorded kind in
  Alcotest.(check (list string))
    "shipped digest matches" []
    (W.digest_problems ~recorded kind b);
  let tampered = Array.copy recorded in
  tampered.(b.W.entry) <- String.map (fun c -> if c = '0' then '1' else '0') b.W.digest;
  Alcotest.(check bool)
    "tampered digest fails" true
    (W.digest_problems ~recorded:tampered kind b <> [])

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "every BENCHMARK.json metric is printed with its unit"
            `Quick test_metrics_printed;
          Alcotest.test_case "a new seed changes fabric and probe inputs" `Quick
            test_seed_changes_inputs;
          Alcotest.test_case "the one-unit setup path runs" `Quick
            test_setup_unit_runs;
          Alcotest.test_case "a tampered recorded digest fails" `Quick
            test_tampered_digest_fails;
        ] );
    ]
