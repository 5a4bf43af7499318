(** Charging context for primitive data-passing operations.

    Every Genie data-passing step performs its real manipulation on the
    simulated substrate {e and} charges the operation's modeled latency
    to the host CPU through this context.  Operations queue sequentially
    on the CPU; [completion_time] is when everything charged so far
    retires.

    When a trace scope is installed (see {!set_trace_scope}), every
    charge additionally emits a [Complete] trace event spanning the
    operation's CPU occupancy and bumps the per-run copy/wire counters.
    Those events are the cost samples the paper took with the cycle
    counter for Table 6; {!sample} reads one back. *)

type t

val create : Simcore.Cpu.t -> Machine.Cost_model.t -> t

val set_trace_scope : t -> Simcore.Tracer.scope -> unit

val charge : t -> Machine.Cost_model.op -> unit:[ `Bytes of int | `Pages of int ] -> unit
(** [charge t op ~unit:(`Bytes n)] charges the modeled cost of [op] on
    [n] bytes; [`Pages n] charges [n] whole pages ([n * page_size]). *)

val charge_n :
  t -> Machine.Cost_model.op -> unit:[ `Bytes of int | `Pages of int ] -> n:int -> unit
(** [charge_n t op ~unit ~n] charges [n] identical operations with one
    CPU-queue update and one trace event — the batched-burst form of
    {!charge}.  Simulated time, decoded samples and trace counters are
    bit-identical to [n] adjacent {!charge} calls; only the host-side
    work is amortized.  [n = 0] charges nothing. *)

val completion_time : t -> Simcore.Sim_time.t
val page_size : t -> int

val sample :
  Simcore.Tracer.event ->
  (Machine.Cost_model.op * int * Simcore.Sim_time.t * int) option
(** [sample ev] decodes the [Complete] event a {!charge} or {!charge_n}
    emitted into [(op, bytes, cost, n)]: [n] operations on [bytes] bytes
    each, every one costing [cost].  [None] for every other event. *)
