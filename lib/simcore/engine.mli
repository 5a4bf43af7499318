(** Discrete-event simulation engine.

    One event queue (a {!Wheel}) and one clock.  Execution is strictly
    sequential and deterministic: events at the same instant run in
    scheduling order. *)

type t

val create : unit -> t

val now : t -> Sim_time.t
(** Current simulated time. *)

val schedule : t -> delay:Sim_time.t -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [delay] after the current time.
    [delay] must be non-negative. *)

val at : t -> time:Sim_time.t -> (unit -> unit) -> unit
(** [at t ~time f] runs [f] at absolute instant [time], which must not
    be in the simulated past. *)

val run : t -> unit
(** Drain the event queue completely. *)

val run_until : t -> Sim_time.t -> unit
(** Process events with timestamp [<= limit]; afterwards the clock reads
    at least [limit]. *)

val pending : t -> int
(** Events still queued. *)
