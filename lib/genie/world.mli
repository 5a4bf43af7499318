(** A two-host Genie testbed: the simulation analogue of the paper's
    pairs of machines on the Credit Net ATM network. *)

type t = {
  engine : Simcore.Engine.t;
  a : Host.t;  (** conventionally the sender / client *)
  b : Host.t;  (** conventionally the receiver / server *)
}

val create :
  ?params:Net.Net_params.t ->
  ?spec_a:Machine.Machine_spec.t ->
  ?spec_b:Machine.Machine_spec.t ->
  ?thresholds:Thresholds.t ->
  ?pool_frames:int ->
  ?trace:Simcore.Tracer.t ->
  unit ->
  t
(** Defaults: OC-3 link between two Micron P166s with the paper's
    thresholds; both hosts share one engine.  [trace] installs one
    shared tracer on both hosts, so a single event stream covers the
    whole testbed (events carry the host name); create it with
    [Simcore.Tracer.create ~enabled:true ()] to record from the first
    instant. *)

val hosts : t -> Host.t list
(** Both hosts, sender first — for tooling that iterates without
    reaching into the record fields. *)

val run : t -> unit
(** Drain all simulation events. *)

val run_for : t -> Simcore.Sim_time.t -> unit

val endpoint_pair :
  t -> vc:int -> mode:Net.Adapter.rx_mode -> Endpoint.t * Endpoint.t
(** One endpoint on each host, same VC and RX mode. *)
