(* Tests for the fitting and reporting helpers. *)

let test_fit_exact_line () =
  let points = List.init 10 (fun i -> (float_of_int i, (3.5 *. float_of_int i) +. 7.)) in
  let fit = Stats.Fit.linear points in
  Alcotest.(check (float 1e-9)) "slope" 3.5 fit.Stats.Fit.slope;
  Alcotest.(check (float 1e-9)) "intercept" 7. fit.Stats.Fit.intercept;
  Alcotest.(check (float 1e-9)) "r2" 1. fit.Stats.Fit.r2;
  Alcotest.(check (float 1e-9)) "eval" 42. (Stats.Fit.eval fit 10.)

let test_fit_noisy () =
  let points = [ (0., 1.); (1., 2.9); (2., 5.1); (3., 7.) ] in
  let fit = Stats.Fit.linear points in
  Alcotest.(check bool) "slope near 2" true (Float.abs (fit.Stats.Fit.slope -. 2.) < 0.1);
  Alcotest.(check bool) "good r2" true (fit.Stats.Fit.r2 > 0.99)

let test_fit_constant_x () =
  let fit = Stats.Fit.linear [ (5., 10.); (5., 14.) ] in
  Alcotest.(check (float 1e-9)) "slope 0" 0. fit.Stats.Fit.slope;
  Alcotest.(check (float 1e-9)) "intercept = mean" 12. fit.Stats.Fit.intercept

let test_fit_too_few () =
  Alcotest.check_raises "one point" (Invalid_argument "Fit.linear: need at least two points")
    (fun () -> ignore (Stats.Fit.linear [ (1., 1.) ]))

let fit_recovers_random_lines =
  QCheck.Test.make ~name:"fit recovers random exact lines" ~count:100
    QCheck.(pair (float_range (-100.) 100.) (float_range (-1000.) 1000.))
    (fun (slope, intercept) ->
      let points =
        List.init 5 (fun i ->
            let x = float_of_int (i * 997) in
            (x, (slope *. x) +. intercept))
      in
      let fit = Stats.Fit.linear points in
      Float.abs (fit.Stats.Fit.slope -. slope) < 1e-6
      && Float.abs (fit.Stats.Fit.intercept -. intercept) < 1e-3)

let test_table_render () =
  let t = Stats.Text_table.create ~header:[ "a"; "bb" ] in
  Stats.Text_table.add_row t [ "1"; "2" ];
  Stats.Text_table.add_rule t;
  Stats.Text_table.add_row t [ "333"; "4" ];
  let s = Stats.Text_table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  Alcotest.(check int) "five lines" 5
    (List.length (String.split_on_char '\n' (String.trim s)))




let test_ascii_chart () =
  let chart =
    Stats.Ascii_chart.render ~width:40 ~height:10
      [ ("up", [ (0., 0.); (10., 100.) ]); ("down", [ (0., 100.); (10., 0.) ]) ]
  in
  Alcotest.(check bool) "has first glyph" true (String.contains chart '*');
  Alcotest.(check bool) "has second glyph" true (String.contains chart 'o');
  let contains_sub hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has legend" true (contains_sub chart "up");
  Alcotest.(check string) "empty input" "" (Stats.Ascii_chart.render [])

(* {1 Streaming summary laws}

   The fixed-memory quantile summary backs the fabric's latency
   statistics, so its contract is law-tested: quantiles within the
   documented relative error of the exact nearest-rank sample, and a
   merge that is exactly associative and commutative (the property
   that makes per-port summaries fold into one global summary
   bit-identically in any order). *)

module SS = Stats.Streaming_summary

let samples_gen =
  QCheck.(list_of_size Gen.(int_range 1 300) (float_range 0.001 1e6))

(* Exact nearest-rank quantile, the same rank convention the summary
   documents: round(q * (n-1)) on the ascending-sorted samples. *)
let exact_nearest_rank sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (Float.round (q *. float_of_int (n - 1))) in
  sorted.(Stdlib.max 0 (Stdlib.min (n - 1) rank))

let streaming_quantile_tolerance =
  QCheck.Test.make
    ~name:"streaming quantiles track exact nearest-rank within bucket error"
    ~count:200 samples_gen
    (fun samples ->
      let t = SS.create () in
      List.iter (SS.add t) samples;
      let sorted = Array.of_list samples in
      Array.sort Float.compare sorted;
      SS.min t = sorted.(0)
      && SS.max t = sorted.(Array.length sorted - 1)
      && SS.count t = Array.length sorted
      && List.for_all
           (fun q ->
             let exact = exact_nearest_rank sorted q in
             (* bucket width is 1/64 of the value; the midpoint is
                within half that, 1% covers it with slack *)
             Float.abs (SS.quantile t q -. exact) <= (0.01 *. exact) +. 1e-9)
           [ 0.; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ])

let streaming_merge_laws =
  QCheck.Test.make
    ~name:"streaming summary merge is associative, commutative, order-blind"
    ~count:200
    QCheck.(triple samples_gen samples_gen samples_gen)
    (fun (xs, ys, zs) ->
      let of_list l =
        let t = SS.create () in
        List.iter (SS.add t) l;
        t
      in
      let a = of_list xs and b = of_list ys and c = of_list zs in
      let abc = SS.merge (SS.merge a b) c in
      SS.equal abc (SS.merge a (SS.merge b c))
      && SS.equal (SS.merge a b) (SS.merge b a)
      && String.equal (SS.digest abc) (SS.digest (SS.merge c (SS.merge b a)))
      (* merging parts is the same population as one summary fed every
         sample, whatever the arrival order *)
      && SS.equal abc (of_list (zs @ xs @ ys))
      && SS.count abc = List.length xs + List.length ys + List.length zs)

let test_streaming_summary_basics () =
  let t = SS.create () in
  Alcotest.(check bool) "fresh is empty" true (SS.is_empty t);
  Alcotest.check_raises "quantile on empty rejected"
    (Invalid_argument "Streaming_summary.quantile: empty summary") (fun () ->
      ignore (SS.quantile t 0.5));
  Alcotest.check_raises "negative sample rejected"
    (Invalid_argument "Streaming_summary.add: samples must be non-negative")
    (fun () -> SS.add t (-1.));
  List.iter (SS.add t) [ 10.; 20.; 30.; 40. ];
  Alcotest.(check (float 1e-9)) "mean exact" 25. (SS.mean t);
  Alcotest.(check (float 1e-9)) "p0 is min" 10. (SS.percentile t 0.);
  Alcotest.(check (float 1e-9)) "p100 is max" 40. (SS.percentile t 100.);
  let m = SS.memory_words t in
  let big = SS.create () in
  for i = 1 to 100_000 do
    SS.add big (float_of_int i)
  done;
  Alcotest.(check int) "fixed footprint regardless of count" m
    (SS.memory_words big)

let test_geometric_mean () =
  let gm = Workload.Experiments.geometric_mean in
  Alcotest.(check (float 1e-9)) "gm" 4. (gm [ 2.; 8. ]);
  Alcotest.check_raises "empty"
    (Invalid_argument "Experiments.geometric_mean: empty list") (fun () ->
      ignore (gm []));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Experiments.geometric_mean: non-positive value") (fun () ->
      ignore (gm [ 2.; 0. ]))

let suite =
  [
    Alcotest.test_case "fit exact line" `Quick test_fit_exact_line;
    Alcotest.test_case "fit noisy data" `Quick test_fit_noisy;
    Alcotest.test_case "fit constant x" `Quick test_fit_constant_x;
    Alcotest.test_case "fit needs two points" `Quick test_fit_too_few;
    QCheck_alcotest.to_alcotest fit_recovers_random_lines;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "ascii chart" `Quick test_ascii_chart;
    Alcotest.test_case "streaming summary basics" `Quick
      test_streaming_summary_basics;
    QCheck_alcotest.to_alcotest streaming_quantile_tolerance;
    QCheck_alcotest.to_alcotest streaming_merge_laws;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
  ]
