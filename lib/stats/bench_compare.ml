(* Regression gate: diff two Bench_result.t values metric by metric.

   Every metric comes from a deterministic simulator, so it is exactly
   reproducible run to run.  A value that moves by more than
   [threshold_pct] (0.1%, absorbing only serialization rounding) in
   either direction fails: a simulated result changes only with a refreshed baseline.

   A metric's [better] direction only labels the drift, so whoever
   refreshes a baseline sees which way the reproduction moved:
   [Lower]-is-better reads a rise as a regression and a drop as an
   improvement, [Higher]-is-better the reverse, and [Neutral]
   (calibration values) any drift as a regression.  A metric present in
   the baseline but absent from the current run is a failure; a new
   metric in the current run is informational. *)

type verdict = Within | Improvement | Regression

type entry = {
  name : string;
  unit_ : string;
  baseline : float;
  current : float;
  change_pct : float; (* signed, relative to baseline *)
  verdict : verdict;
}

type report = {
  section : string;
  entries : entry list;
  missing : string list; (* in baseline, not in current *)
  extra : string list; (* in current, not in baseline *)
}

let threshold_pct = 0.1

let change_pct ~baseline ~current =
  if baseline = 0. then if current = 0. then 0. else Float.infinity
  else (current -. baseline) /. Float.abs baseline *. 100.

let judge ~(better : Bench_result.better) ~change_pct =
  if Float.abs change_pct <= threshold_pct then Within
  else
    match better with
    | Bench_result.Neutral -> Regression
    | Bench_result.Lower -> if change_pct > 0. then Regression else Improvement
    | Bench_result.Higher -> if change_pct < 0. then Regression else Improvement

let compare ~(baseline : Bench_result.t) ~(current : Bench_result.t) () =
  let entries =
    List.filter_map
      (fun (bm : Bench_result.metric) ->
        match Bench_result.find_metric current bm.Bench_result.name with
        | None -> None
        | Some cm ->
          let baseline = bm.Bench_result.value and current = cm.Bench_result.value in
          let change = change_pct ~baseline ~current in
          Some
            {
              name = bm.Bench_result.name;
              unit_ = bm.Bench_result.unit_;
              baseline;
              current;
              change_pct = change;
              verdict = judge ~better:bm.Bench_result.better ~change_pct:change;
            })
      baseline.Bench_result.metrics
  in
  let missing =
    List.filter_map
      (fun (bm : Bench_result.metric) ->
        match Bench_result.find_metric current bm.Bench_result.name with
        | None -> Some bm.Bench_result.name
        | Some _ -> None)
      baseline.Bench_result.metrics
  in
  let extra =
    List.filter_map
      (fun (cm : Bench_result.metric) ->
        match Bench_result.find_metric baseline cm.Bench_result.name with
        | None -> Some cm.Bench_result.name
        | Some _ -> None)
      current.Bench_result.metrics
  in
  { section = baseline.Bench_result.section; entries; missing; extra }

let regressions r = List.filter (fun e -> e.verdict = Regression) r.entries
let improvements r = List.filter (fun e -> e.verdict = Improvement) r.entries

let passed r = r.missing = [] && List.for_all (fun e -> e.verdict = Within) r.entries

let render r =
  let b = Buffer.create 256 in
  let bad = regressions r and good = improvements r in
  Buffer.add_string b
    (Printf.sprintf "section %s: %d metric(s) compared, %d regression(s), %d improvement(s), %d missing, %d new\n"
       r.section (List.length r.entries) (List.length bad) (List.length good)
       (List.length r.missing) (List.length r.extra));
  let show e tag =
    Buffer.add_string b
      (Printf.sprintf "  %s %-58s %14.6g -> %14.6g %s (%+.2f%%, threshold %.2f%%)\n" tag
         e.name e.baseline e.current e.unit_ e.change_pct threshold_pct)
  in
  List.iter (fun e -> show e "REGRESSION") bad;
  List.iter (fun e -> show e "improvement") good;
  List.iter
    (fun name -> Buffer.add_string b (Printf.sprintf "  MISSING    %s (in baseline, absent from current)\n" name))
    r.missing;
  List.iter
    (fun name -> Buffer.add_string b (Printf.sprintf "  new        %s (not in baseline)\n" name))
    r.extra;
  Buffer.contents b
