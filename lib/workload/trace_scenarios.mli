(** Named, deterministic traced workloads for [genie_cli trace]: each
    builds a fresh two-host world on one enabled tracer, runs a short
    transfer mix and returns the tracer. *)

type t = { name : string; descr : string; run : unit -> Simcore.Tracer.t }

val all : t list
val find : string -> t option
