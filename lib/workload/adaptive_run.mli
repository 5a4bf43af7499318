(** Scenario runner for online adaptive semantics selection.

    A two-host ping-pong, structured so that {e every} cost that depends
    on the candidate semantics lands on host [a]: the forward output is
    prepared at [a] with the candidate, the echo is received back at [a]
    with the candidate, and the peer [b] runs plain copy in both
    directions (a constant per-round overhead, identical across all
    candidates).  A static run and an adaptive run therefore differ
    only in the per-round choice made at [a] — the fair comparison the
    convergence gates need.

    The workload is a static phase schedule (both hosts derive their
    per-round datagram lengths from it independently — nothing mutable
    crosses the hosts).  Mixed workloads are phase lists that revisit
    regimes; single-regime workloads are one phase. *)

type phase = { len : int;  (** payload bytes per datagram *) rounds : int }

type config = {
  scheme : Genie.Stage_cost.scheme;
      (** receiver buffering regime: fixes the RX mode and, for
          [Pooled_unaligned], an unaligned application receive buffer *)
  phases : phase list;
  warmup : int;  (** unmeasured leading rounds *)
  params : Net.Net_params.t;
  spec : Machine.Machine_spec.t;
  thresholds : Genie.Thresholds.t option;
  recv_offset : int;
      (** application-buffer byte offset within its page (0 = aligned) *)
}

type outcome = {
  mean_rtt_us : float;  (** mean measured round trip, sim time *)
  total_us : float;  (** sim time spent in the measured window *)
  rounds : int;  (** measured rounds *)
  migrations : int;
  epochs : int;
  final_sem : Genie.Semantics.t;
  last_migration_epoch : int;  (** 0 = never migrated *)
  history : (int * string) list;
      (** (epoch, new semantics name) per migration, oldest first *)
}

(** {1 Canonical regimes}

    The workloads the convergence gates run: four single-regime
    schedules whose winners span distinct taxonomy corners, and a mixed
    schedule that revisits two regimes so no static choice can win.
    All use {!Genie.Thresholds.no_conversion} so candidates are
    measurably distinct (with conversion on, every short-datagram
    candidate runs as plain copy and ties). *)

type regime = {
  r_name : string;
  r_config : config;
  r_candidates : Genie.Semantics.t list;
  r_adapt : Genie.Adapt.config;
}

val regimes : regime list
(** The four single-regime workloads, by name — their winners span four
    distinct taxonomy corners: [short] (192 B, early demux,
    strong-integrity corners; winner plain copy), [half_page] (2 KB,
    early demux, strong-integrity corners; winner emulated move),
    [large] (60 KB, early demux, all eight corners; winner emulated
    share), [pooled_large] (60 KB, pooled, system-allocated corners;
    winner emulated weak move).  Candidate sets encode application
    constraints — weak-integrity in-place sharing wins every
    app-allocated regime when nothing forbids it, exactly the paper's
    argument for why integrity is a semantic axis and not a tuning
    knob. *)

val mixed_regime : regime
(** Short-heavy blocks of 192 B datagrams alternating with 60 KB bursts
    under early demultiplexing, restricted to the conversion pair
    (plain copy / emulated copy) whose crossover the paper's offline
    length thresholds arbitrate.  No static choice wins both phases, so
    the adaptive controller — re-migrating at each phase boundary —
    beats every static. *)

val find_regime : string -> regime option
(** Look up a single regime or the mixed one by [r_name]. *)

(** Result of one convergence experiment on a regime: every candidate
    measured statically, the adaptive run from a deliberately wrong
    start, and the settlement verdict. *)
type convergence = {
  c_regime : string;
  c_static_us : (string * float) list;  (** mean RTT per static candidate *)
  c_winner : string;  (** argmin of [c_static_us] *)
  c_start : string;  (** the (losing) semantics the adaptive run began on *)
  c_adaptive_us : float;
  c_final : string;
  c_epochs : int;
  c_migrations : int;
  c_last_migration_epoch : int;
  c_settled : bool;
      (** adaptive ended on [c_winner] with no migration in the final
          half of the run's epochs *)
}

val converge : start_index:int -> regime -> convergence
(** Run the full experiment: statics for every candidate, then the
    adaptive run starting from the [start_index]-th non-winning
    candidate (mod their count) — so different indices exercise
    different wrong starts deterministically. *)
