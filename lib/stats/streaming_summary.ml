(* Streaming quantile summary with fixed memory.

   A log-linear histogram (HDR-histogram style): every non-negative
   sample lands in a bucket whose width is a fixed fraction of its
   value, so quantile queries are answered to a bounded *relative* error
   with O(1) state per summary — a 1M-flow run holds the same few
   kilowords as a 100-flow run.

   Why a histogram and not a random reservoir or a P^2 estimator: the
   fabric engine's results must be bit-identical from run to run, and
   its per-port summaries must merge into one global summary after the
   run.  A sampling reservoir needs a random source
   (merging two is order-sensitive), and P^2 marker updates neither
   merge nor commute.  Bucket counts do both: [merge] is a vector add,
   exactly associative and commutative, and [add] is deterministic.

   Layout: values in [2^e_min, 2^e_max) are split into
   (e_max - e_min) octaves of [sub_per_octave] linear sub-buckets, so
   the relative bucket width is 1/sub_per_octave (~1.6%) and the
   reported quantile — the bucket's geometric midpoint — is within
   ~0.8% of the rank's true value.  Samples below 2^e_min collapse into
   the underflow bucket (reported as the exact minimum) and values
   above 2^e_max saturate into the top bucket; exact count / sum /
   min / max are kept alongside. *)

let sub_bits = 6
let sub_per_octave = 1 lsl sub_bits

(* 2^-32 .. 2^64: microsecond latencies, byte counts and rates all fit
   with room to spare.  96 octaves x 64 sub-buckets = 6144 ints. *)
let e_min = -32
let e_max = 64
let nbuckets = (e_max - e_min) * sub_per_octave

type t = {
  buckets : int array;
  mutable underflow : int;  (* samples below 2^e_min, including 0 *)
  mutable n : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  {
    buckets = Array.make nbuckets 0;
    underflow = 0;
    n = 0;
    sum = 0.;
    min = infinity;
    max = neg_infinity;
  }

let copy t =
  {
    buckets = Array.copy t.buckets;
    underflow = t.underflow;
    n = t.n;
    sum = t.sum;
    min = t.min;
    max = t.max;
  }

let count t = t.n
let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n
let min t = t.min
let max t = t.max
let is_empty t = t.n = 0

(* Bucket of a value in [2^e_min, inf): octave from frexp
   (v = m * 2^e, m in [0.5, 1)), sub-bucket linear in the mantissa.
   Values at or above 2^e_max saturate into the top bucket; the caller
   has already diverted smaller values to the underflow counter. *)
let bucket_of v =
  let m, e = Float.frexp v in
  let oct = e - 1 in
  (* v in [2^oct, 2^(oct+1)) *)
  if oct >= e_max then nbuckets - 1
  else begin
    let sub =
      Stdlib.min (sub_per_octave - 1)
        (int_of_float ((m -. 0.5) *. 2. *. float_of_int sub_per_octave))
    in
    ((oct - e_min) * sub_per_octave) + sub
  end

(* Representative of a bucket: its linear midpoint.  Bucket [i] covers
   [2^oct * (1 + sub/S), 2^oct * (1 + (sub+1)/S)) for S sub-buckets per
   octave, so any member is within 1/(2S) (~0.8%) of the midpoint. *)
let bucket_value i =
  let oct = (i / sub_per_octave) + e_min in
  let sub = i mod sub_per_octave in
  let s = float_of_int sub_per_octave in
  Float.ldexp (1. +. ((float_of_int sub +. 0.5) /. s)) oct

let tiny = Float.ldexp 1. e_min

let add t v =
  if Float.is_nan v || v < 0. then
    invalid_arg "Streaming_summary.add: samples must be non-negative";
  t.n <- t.n + 1;
  t.sum <- t.sum +. v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v;
  if v < tiny then t.underflow <- t.underflow + 1
  else begin
    let i = bucket_of v in
    t.buckets.(i) <- t.buckets.(i) + 1
  end

let quantile t q =
  if t.n = 0 then invalid_arg "Streaming_summary.quantile: empty summary";
  if q < 0. || q > 1. then
    invalid_arg "Streaming_summary.quantile: q out of [0, 1]";
  (* Nearest-rank on the cumulative bucket counts; the extreme ranks
     return the exact extrema. *)
  let rank = int_of_float (Float.round (q *. float_of_int (t.n - 1))) in
  if rank <= 0 then t.min
  else if rank >= t.n - 1 then t.max
  else begin
    let rec walk i cum =
      if i >= nbuckets then t.max
      else begin
        let cum = cum + t.buckets.(i) in
        if cum > rank then
          (* Clamp into the observed range: the representative of the
             extreme buckets may lie outside [min, max]. *)
          Float.min t.max (Float.max t.min (bucket_value i))
        else walk (i + 1) cum
      end
    in
    if t.underflow > rank then t.min else walk 0 t.underflow
  end

let percentile t p = quantile t (p /. 100.)

let merge a b =
  let t = copy a in
  Array.iteri (fun i c -> t.buckets.(i) <- t.buckets.(i) + c) b.buckets;
  t.underflow <- t.underflow + b.underflow;
  t.n <- t.n + b.n;
  t.sum <- t.sum +. b.sum;
  if b.min < t.min then t.min <- b.min;
  if b.max > t.max then t.max <- b.max;
  t

let equal a b =
  a.n = b.n && a.underflow = b.underflow
  && Float.equal a.min b.min && Float.equal a.max b.max
  && a.buckets = b.buckets

(* A compact digest of the distribution for determinism gates: counts
   and bucket occupancy are exact integers, extrema printed to fixed
   precision.  Two runs that produced the same samples in any order
   digest identically. *)
let digest t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "n=%d;u=%d;" t.n t.underflow);
  if t.n > 0 then
    Buffer.add_string b (Printf.sprintf "min=%.6e;max=%.6e;" t.min t.max);
  Array.iteri
    (fun i c -> if c > 0 then Buffer.add_string b (Printf.sprintf "%d:%d;" i c))
    t.buckets;
  Digest.to_hex (Digest.string (Buffer.contents b))

let memory_words _t = nbuckets + 8
