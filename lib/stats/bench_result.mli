(** Machine-readable benchmark results: one section's metrics, each one
    deterministic simulated value, in the JSON schema of
    docs/BENCHMARKING.md, written as BENCH_<section>.json. *)

type better = Lower | Higher | Neutral  (** [Neutral]: calibration values *)
type metric = { name : string; unit_ : string; better : better; value : float }
type env = { os_type : string; word_size : int; ocaml_version : string }
type t = { section : string; env : env; metrics : metric list }
type collector

val create_collector : section:string -> unit -> collector

val scalar : collector -> name:string -> unit_:string -> ?better:better -> float -> unit
(** Record one metric ([better] defaults to [Lower]).
    @raise Invalid_argument on a non-finite value or a duplicate name. *)

val collector_is_empty : collector -> bool
val result : collector -> t
val to_string : t -> string

val of_string : string -> (t, string) result
(** Reads only the current schema version. *)

val filename : string -> string
val write : dir:string -> t -> string
(** Write BENCH_<section>.json into [dir]; returns its path. *)

val read : string -> (t, string) result
val find_metric : t -> string -> metric option
