(** Simulated time.

    All simulation time is kept in integer nanoseconds so that runs are
    deterministic and free of floating-point drift.  Conversion helpers to
    and from microseconds are provided because the paper reports every
    latency in microseconds. *)

type t = int
(** Nanoseconds since the start of the simulation. *)

val zero : t

val of_ns : int -> t
val to_ns : t -> int

val of_us : float -> t
(** [of_us us] rounds the given microsecond value to whole nanoseconds. *)

val to_us : t -> float

val add : t -> t -> t
val diff : t -> t -> t
(** [diff later earlier] is [later - earlier]. *)

val max : t -> t -> t
val compare : t -> t -> int
