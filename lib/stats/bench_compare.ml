(* Regression gate: diff two Bench_result.t values metric by metric.

   Simulated-time metrics ([Bench_result.Sim]) come from a deterministic
   simulator, so they are exactly reproducible run to run and get a
   strict threshold (default 0.1%, absorbing only serialization
   rounding).  Wall-clock metrics ([Wall]) measure the reproduction
   itself on whatever machine ran it and get a tolerant threshold
   (default 10%).

   A metric's [better] direction decides what counts as a regression:
   [Lower]-is-better regresses when the current mean exceeds baseline by
   more than the threshold, [Higher]-is-better when it falls short, and
   [Neutral] (calibration values) when it drifts either way.  A metric
   present in the baseline but absent from the current run is a failure;
   a new metric in the current run is informational. *)

type verdict = Within | Improvement | Regression

type entry = {
  name : string;
  unit_ : string;
  kind : Bench_result.kind;
  baseline_mean : float;
  current_mean : float;
  change_pct : float; (* signed, relative to baseline *)
  threshold_pct : float;
  verdict : verdict;
}

type report = {
  section : string;
  entries : entry list;
  missing : string list; (* in baseline, not in current *)
  extra : string list; (* in current, not in baseline *)
}

let default_sim_threshold = 0.001
let default_wall_threshold = 0.10

let change_pct ~baseline ~current =
  if baseline = 0. then if current = 0. then 0. else Float.infinity
  else (current -. baseline) /. Float.abs baseline *. 100.

let judge ~(better : Bench_result.better) ~threshold_pct ~change_pct =
  let exceeds = Float.abs change_pct > threshold_pct in
  if not exceeds then Within
  else
    match better with
    | Bench_result.Neutral -> Regression
    | Bench_result.Lower -> if change_pct > 0. then Regression else Improvement
    | Bench_result.Higher -> if change_pct < 0. then Regression else Improvement

let compare ?(sim_threshold = default_sim_threshold)
    ?(wall_threshold = default_wall_threshold) ~(baseline : Bench_result.t)
    ~(current : Bench_result.t) () =
  let entries =
    List.filter_map
      (fun (bm : Bench_result.metric) ->
        match Bench_result.find_metric current bm.Bench_result.name with
        | None -> None
        | Some cm ->
          let threshold =
            match bm.Bench_result.kind with
            | Bench_result.Sim -> sim_threshold
            | Bench_result.Wall -> wall_threshold
          in
          let threshold_pct = threshold *. 100. in
          let baseline_mean = bm.Bench_result.summary.Summary.mean in
          let current_mean = cm.Bench_result.summary.Summary.mean in
          let change = change_pct ~baseline:baseline_mean ~current:current_mean in
          Some
            {
              name = bm.Bench_result.name;
              unit_ = bm.Bench_result.unit_;
              kind = bm.Bench_result.kind;
              baseline_mean;
              current_mean;
              change_pct = change;
              threshold_pct;
              verdict = judge ~better:bm.Bench_result.better ~threshold_pct ~change_pct:change;
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

(* Wall-clock regressions can be silenced (shared CI runners are noisy);
   sim regressions and missing metrics always fail. *)
let passed ?(ignore_wall = false) r =
  r.missing = []
  && List.for_all (fun e -> ignore_wall && e.kind = Bench_result.Wall) (regressions r)

let render r =
  let b = Buffer.create 256 in
  let bad = regressions r and good = improvements r in
  Buffer.add_string b
    (Printf.sprintf "section %s: %d metric(s) compared, %d regression(s), %d improvement(s), %d missing, %d new\n"
       r.section (List.length r.entries) (List.length bad) (List.length good)
       (List.length r.missing) (List.length r.extra));
  let show e tag =
    Buffer.add_string b
      (Printf.sprintf "  %s %-58s %14.6g -> %14.6g %s (%+.2f%%, threshold %.2f%%, %s)\n" tag
         e.name e.baseline_mean e.current_mean e.unit_ e.change_pct e.threshold_pct
         (match e.kind with Bench_result.Sim -> "sim" | Bench_result.Wall -> "wall"))
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
