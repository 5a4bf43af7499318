(** Randomized fault-schedule fuzzer for the VM/Genie stack.

    Drives a two-host {!Genie.World} through a long randomized schedule —
    transfers under all eight data-passing semantics, across all three
    device buffering architectures, with sizes straddling the emulation
    thresholds — while injecting faults: corrupted, duplicated and
    delayed AAL5 PDUs, outputs with no receiver posted, application
    writes into in-flight strong-integrity buffers (the TCOW poke),
    pageout pressure, and mid-transfer removal of system-allocated input
    regions (forcing the region check to re-home zombie pages).

    [run] is a short driver over seven regime modules, each holding one
    regime's state, weighted actions, drain audit and digest counter:
    the core datagram transfers with their faults; the batch API;
    {e exhaustion}, whose hogs hold slices of the overlay pool and of
    free memory so transfers hit the typed degradation ladder; {e link
    faults}, one-shot faults on the datagram VCs plus go-back-N
    {!Genie.Rel_channel} sessions under drop / duplicate / delay /
    corrupt / dead-link schedules; storage; fabric churn against a
    {!Genie.Flow_table} shadow model ([flow-table] violations); and
    adaptation, a {!Genie.Adapt} controller choosing host a's output
    semantics under mid-run workload shifts, its migrations bounded by
    {!Genie.Adapt.migration_cap} ([adapt-oscillation]).

    Beyond the {!Invariants} catalogue (run every [check_every] steps),
    the fuzzer audits two end-to-end properties and reports them as
    violations under the [byte-integrity] and [transfer-accounting]
    names: a delivered buffer claiming [ok] must hold exactly the bytes
    sent (unless the application poked the source), and at quiescence
    every queued transfer must have completed or been cancelled.

    The first violation stops the run and the outcome carries the
    violations, the action schedule so far and the tail of both hosts'
    tracers.  Scheduling decisions come only from {!Simcore.Rng}, so a
    seed reproduces a run exactly — same seed, same schedule, same
    trace, same event counts. *)

type config = {
  seed : int;
  steps : int;  (** number of randomized actions *)
  check_every : int;  (** run the invariant suite every N steps *)
  pool_frames : int;  (** per-host overlay pool size *)
  memory_mb : int;  (** per-host physical memory *)
  exhaustion : bool;  (** schedule pool/memory hog actions *)
  link_faults : bool;
      (** schedule one-shot link faults and reliable-transport sessions *)
  batch : bool;
      (** drive transfers through the batch API: random-size
          {!Genie.Endpoint.submit_batch} bursts with mid-batch cancels
          and per-entry backpressure, completions collected by randomly
          scheduled {!Genie.Endpoint.reap_completions} calls plus a
          final reap at drain.  Off isolates the sequential
          single-call path. *)
  storage : bool;
      (** drive file I/O through each host's {!Genie.File_io}: random
          writes, reads and fsyncs over three files per side against a
          deliberately small page cache, sendfile datagrams on a
          dedicated VC, and drop-caches/writeback-kick control actions —
          so writeback batching, capacity eviction, throttled
          completions and [`Again] cache-admission rejects all run under
          the exhaustion regime.  Every read, every sendfile delivery
          that completes [ok] (a typed drop under memory exhaustion is a
          legitimate outcome, not a violation) and a full end-of-run
          readback are audited against a flat-file model
          ([byte-integrity]); the store counters join the audited event
          set and the replay digest. *)
}

val default_config : config
(** seed 1, 2000 steps, checking every step, 128 pool frames, 32 MB,
    every regime on. *)

type switch = {
  name : string;  (** [genie_cli check --no-NAME] turns the regime off *)
  doc : string;
  off : config -> config;
}

val switches : switch list
(** The regimes a run can leave out, in flag order: exhaustion, link
    faults, batch, storage. *)

type stop_reason =
  | Completed
  | Violations of Invariants.violation list
      (** first non-empty invariant report; the run stops immediately *)

type outcome = {
  steps_run : int;  (** actions performed before stopping *)
  stop : stop_reason;
  schedule : string list;
      (** the executed actions, oldest first — the replay recipe *)
  transfers_started : int;
  transfers_completed : int;  (** inputs that delivered a result *)
  faults_injected : int;  (** corruptions, orphan sends, pokes, removals *)
  rejected : int;  (** typed [`Again] backpressure rejections observed *)
  rel_sessions : int;  (** reliable-transport sessions started *)
  storage_ops : int;  (** storage-regime operations issued *)
  fabric_ops : int;  (** fabric-churn flow-table operations issued *)
  events : (string * int) list;
      (** pressure/fault trace counters of both hosts summed, one entry
          per name in the audited set (zeroes included) — e.g.
          [sem_fallbacks], [backpressure_rejects], [reclaims],
          [pdu_drops], [rel_gave_ups] *)
  trace_tail : string list;
      (** the last 48 tracer events of each host at the end of the run *)
  digest : string;
      (** hex digest of the run's results: driver counts, completion
          sums, audited tracer counters and the final simulated instant.
          Runs of one [config] produce one digest — the seed-replay
          check. *)
}

val run : ?trace:Simcore.Tracer.t -> config -> outcome
(** Build a fresh world and execute the schedule.  Deterministic in
    [config].  [trace] installs a shared tracer on both hosts (it is
    enabled for the run), so callers can audit the typed event stream —
    span nesting, counter monotonicity — under the fault schedule; the
    outcome is the one an untraced run gives. *)

val pp_outcome : Format.formatter -> outcome -> unit
