(** Datacenter-scale fan-in flow engine.

    A scenario generator for an N-host fan-in service: [hosts] logical
    client hosts offer flows with heavy-tailed (bounded-Pareto) sizes as
    an open-loop Poisson process into a service spread over [ports]
    simulated host pairs, with connection churn — flows open, stream
    their bytes as chunked datagrams under per-VC credit flow control,
    and close, recycling their circuit.

    The engine scales by keeping {e state} proportional to what is
    active, not to what is offered:

    - The N logical hosts are not N simulated hosts.  Superposed Poisson
      sources are again Poisson, so the clients of a port collapse
      exactly into one arrival process of the aggregate rate; a flow
      carries its source-host id as data.  Host state is O(ports).
    - Flows are lightweight state machines recycled through a
      generation-stamped free list ({!Genie.Flow_table}); an arrival
      that finds no free circuit is {e rejected} (connection refused
      under overload), so live flow state is capped by the circuit
      pools, O(active flows), however many flows a run offers.
    - Endpoints, VCs and their buffers are pooled per port and reused
      across every flow that rides them.
    - Per-flow sojourn times stream into a fixed-memory
      {!Stats.Streaming_summary} per port, merged after the run.

    Mixed semantics: each flow draws its output semantics from the four
    application-allocated corners of the taxonomy; each circuit fixes an
    input-side semantics at pool construction.

    Fixed in the model: flow sizes are bounded Pareto with tail index
    1.3 on [4 KB, 1 MB]; each client VC has a 512-cell credit window; an
    output or input refused with [`Again] is retried after 50 us; every
    port is an OC-3 link between two light Micron P166 hosts.

    Runs are deterministic for a given [seed]: every port shares one
    sequential engine and draws from its own Rng stream split from the
    seed.  {!outcome.digest} is the replay gate. *)

type config = {
  hosts : int;  (** logical client hosts fanning in *)
  ports : int;  (** simulated host pairs carrying them *)
  circuits_per_port : int;  (** pooled VCs per port = active-flow cap *)
  flows : int;  (** total flows to offer across all ports *)
  load : float;  (** target utilization of each port's link, in (0, ~1+] *)
  chunk_bytes : int;  (** flows stream as datagrams of this size *)
  seed : int;
}

val default : config
(** 1024 hosts over 4 ports, 32 circuits/port, 2000 flows at load 0.7,
    16 KB chunks, seed 42. *)

type outcome = {
  offered : int;
  accepted : int;
  rejected : int;  (** arrivals that found no free circuit *)
  completed : int;  (** flows fully received server-side *)
  retries : int;
      (** chunk submissions and input posts backpressured and retried *)
  crc_failures : int;
  rx_bytes : int;
  duration_us : float;
  delivered_mbps : float;
  sojourn_us : Stats.Streaming_summary.t;
      (** open-to-last-byte sojourn of every completed flow *)
  active_high_water : int;
      (** peak simultaneous live flows, summed over ports *)
  table_capacity : int;
      (** flow-table slots actually allocated (the memory bound), summed *)
  digest : string;
      (** deterministic digest of per-port accounting, sojourn
          populations and final simulated time *)
}

val run : config -> outcome
(** Run the scenario to completion (all accepted flows drain). *)
