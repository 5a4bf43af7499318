(** Streaming quantile summary with fixed memory.

    A log-linear histogram (HDR-histogram style) over non-negative
    samples: O(1) state regardless of sample count, quantiles to a
    bounded relative error (~0.8%, half the 1/64 bucket width), and a
    deterministic, exactly associative and commutative {!merge} — the
    properties the fabric engine needs to fold per-port latency
    populations into one global summary bit-identically in any order.
    (A sampling reservoir needs randomness and
    merges order-sensitively; P^2 marker updates neither merge nor
    commute — see the implementation comment.)

    Count, sum, minimum and maximum are tracked exactly; {!quantile} is
    nearest-rank over the bucket counts, with the extreme ranks
    returning the exact extrema.  Law-tested in [test_stats] against
    exact nearest-rank quantiles and for merge associativity. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one sample.  @raise Invalid_argument on NaN or negative. *)

val count : t -> int
val mean : t -> float
val min : t -> float
val max : t -> float
val is_empty : t -> bool

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0, 1]; nearest-rank, within the bucket
    relative error of the exact sample at that rank.  [q = 0] and
    [q = 1] are the exact extrema.
    @raise Invalid_argument when empty or [q] out of range. *)

val percentile : t -> float -> float
(** [percentile t p = quantile t (p /. 100.)]. *)

val merge : t -> t -> t
(** Pure pointwise merge: the summary of the union of both sample
    populations.  Exactly associative and commutative on counts,
    buckets and extrema (the float [sum] is added pairwise, so its
    grouping follows the merge tree). *)

val equal : t -> t -> bool
(** Structural equality of counts, buckets and extrema ([sum]
    excluded) — the merge-associativity law's notion of sameness. *)

val digest : t -> string
(** Hex digest of the exact fields (counts, occupied buckets, extrema
    to fixed precision): one value per sample population, whatever
    order the samples arrived in — determinism-gate material. *)

val memory_words : t -> int
(** Fixed footprint in words, for the memory-bound argument. *)
