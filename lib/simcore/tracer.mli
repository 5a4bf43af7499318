(** Typed kernel-path event trace.

    Events are stamped with sim-time, host and subsystem, and carry a
    structured payload: instants, span begin/end pairs (for nesting
    stages such as an input path's prepare→complete window), complete
    events (a span whose duration is known up front, e.g. a CPU charge),
    and monotonic named counters (faults, copies, COW breaks, ...).

    Disabled by default and near-zero cost while disabled: emitters test
    one boolean and return, and argument lists can be guarded with {!on}
    so hot paths build no payload at all.  Trace tails and debugging
    render typed events to strings on read-out via {!render}. *)

type subsystem = Vm | Mem | Genie | Net | Store | Sim

val subsystem_name : subsystem -> string
(** Lower-case short name, e.g. ["vm"]. *)

type arg = Int of int | Str of string | Bool of bool | Float of float

type kind =
  | Instant
  | Begin of int  (** span opens; payload is the span id *)
  | End of int  (** span closes; payload is the matching span id *)
  | Complete of Sim_time.t
      (** a span known in full when emitted: the event [time] is the
          start and the payload the duration *)
  | Counter of int  (** counter value {e after} this update *)

type event = {
  seq : int;  (** recording order, 0-based *)
  time : Sim_time.t;
  host : string;
  sub : subsystem;
  name : string;
  kind : kind;
  args : (string * arg) list;
}

type t

val create : ?enabled:bool -> unit -> t
val enable : t -> unit
val disable : t -> unit

val enable_counters : t -> unit
(** Count-only mode: named counters accumulate but no events are
    recorded, so memory stays O(distinct counters) however long the run
    — what the adaptive controller turns on to sample evidence during
    million-flow runs.  Full {!enable} supersedes it (events and
    counters both). *)

val set_clock : t -> (unit -> Sim_time.t) -> unit
(** Install the sim clock used to stamp events emitted through scopes
    (typically [fun () -> Engine.now engine]).  Defaults to a constant
    zero clock. *)

(** {1 Scopes and typed emission}

    A scope fixes the (host, subsystem) coordinates once; instrumented
    code keeps a scope and emits through it. *)

type scope

val scope : t -> host:string -> sub:subsystem -> scope

val on : scope -> bool
(** [on s] is true while the underlying tracer is enabled.  Guard
    argument construction with it in hot paths. *)

val counting : scope -> bool
(** [counting s] is true while counters accumulate (fully enabled or
    count-only).  Guard counter bumps whose delta needs computing with
    it; {!add_counter} itself already self-guards. *)

val instant : scope -> ?args:(string * arg) list -> string -> unit

val span_begin : scope -> ?args:(string * arg) list -> string -> int
(** Returns the span id to pass to {!span_end} (0 while disabled). *)

val span_end : scope -> ?args:(string * arg) list -> id:int -> string -> unit
(** No-op for [id = 0], so a span begun while the tracer was disabled
    closes silently even if tracing was enabled in between. *)

val complete :
  scope ->
  ?args:(string * arg) list ->
  start:Sim_time.t ->
  dur:Sim_time.t ->
  string ->
  unit

val add_counter : scope -> ?n:int -> string -> unit
(** Bump the per-(host, name) counter by [n] (default 1); while fully
    enabled also record a [Counter] event with the updated value.  While
    neither enabled nor counting, a no-op. *)

(** {1 Counter probes}

    A probe pins the cells of a fixed (host, name) set at creation, so
    per-epoch consumers read or delta N counters in O(N) dereferences
    instead of rescanning the whole counter table.  Invalidated by
    {!clear} (recreate the probe after clearing). *)

type probe

val probe : t -> host:string -> string list -> probe
val probe_names : probe -> string list

val probe_read : probe -> int -> int
(** Current value of the [i]-th probed counter. *)

val probe_delta : probe -> int array
(** Per-counter increments since the previous [probe_delta] call (since
    probe creation on the first call); advances the snapshot. *)

(** {1 Reading back} *)

val typed_events : t -> event list
(** All events in recording order. *)

val counter : t -> host:string -> string -> int
(** Current value of a counter ([0] if never bumped). *)

val counters : t -> (string * string * int) list
(** All (host, counter name, value) triples, sorted. *)

val clear : t -> unit
(** Drop recorded events and reset counters (keeps enablement). *)

val tail : t -> int -> event list
(** The most recent [n] events, oldest first ([[]] for [n <= 0]). *)

(** {1 Rendering} *)

val render : event -> string
(** One-line human-readable form, e.g. ["[a/store] cache_hits = 3"]. *)
