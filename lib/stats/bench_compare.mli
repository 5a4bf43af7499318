(** The regression gate: two results of one section, metric by metric.
    Any value that moves by more than 0.1% either way fails; [better]
    only labels the drift. *)

type verdict = Within | Improvement | Regression

type entry = {
  name : string;
  unit_ : string;
  baseline : float;
  current : float;
  change_pct : float;  (** signed, relative to the baseline *)
  verdict : verdict;
}

type report = {
  section : string;
  entries : entry list;
  missing : string list;  (** in the baseline, not in the current run: a failure *)
  extra : string list;  (** in the current run only: informational *)
}

val compare : baseline:Bench_result.t -> current:Bench_result.t -> unit -> report
val regressions : report -> entry list
val improvements : report -> entry list
val passed : report -> bool
val render : report -> string
