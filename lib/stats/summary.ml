(* Sample statistics for benchmark metrics: count, mean, population
   standard deviation, extrema, interpolated percentiles, and the
   geometric mean of positive ratios. *)

type t = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

(* Linear interpolation between closest ranks, on an ascending-sorted
   array; [p] in [0, 100]. *)
let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.percentile_sorted: empty array";
  if p < 0. || p > 100. then invalid_arg "Summary.percentile_sorted: p out of range";
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
    end
  end

let percentile samples p =
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  percentile_sorted sorted p

let of_samples samples =
  match samples with
  | [] -> invalid_arg "Summary.of_samples: empty sample list"
  | _ ->
    let sorted = Array.of_list samples in
    Array.sort Float.compare sorted;
    let n = Array.length sorted in
    let fn = float_of_int n in
    let total = Array.fold_left ( +. ) 0. sorted in
    let mean = total /. fn in
    let var =
      Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. sorted /. fn
    in
    {
      n;
      mean;
      stddev = sqrt var;
      min = sorted.(0);
      max = sorted.(n - 1);
      p50 = percentile_sorted sorted 50.;
      p95 = percentile_sorted sorted 95.;
    }

let geometric_mean values =
  match values with
  | [] -> invalid_arg "Summary.geometric_mean: empty list"
  | _ ->
    let log_sum =
      List.fold_left
        (fun acc v ->
          if v <= 0. then invalid_arg "Summary.geometric_mean: non-positive value";
          acc +. log v)
        0. values
    in
    exp (log_sum /. float_of_int (List.length values))

let to_json t =
  Json.Obj
    [
      ("n", Json.Int t.n);
      ("mean", Json.Float t.mean);
      ("stddev", Json.Float t.stddev);
      ("min", Json.Float t.min);
      ("max", Json.Float t.max);
      ("p50", Json.Float t.p50);
      ("p95", Json.Float t.p95);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let num key =
    match Option.bind (Json.member key j) Json.to_float with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "summary: missing or non-numeric %S" key)
  in
  let* n =
    match Option.bind (Json.member "n" j) Json.to_int with
    | Some n -> Ok n
    | None -> Error "summary: missing or non-integer \"n\""
  in
  let* mean = num "mean" in
  let* stddev = num "stddev" in
  let* min = num "min" in
  let* max = num "max" in
  let* p50 = num "p50" in
  let* p95 = num "p95" in
  Ok { n; mean; stddev; min; max; p50; p95 }
