(** Randomized fault-schedule fuzzer for the VM/Genie stack.

    Drives a two-host {!Genie.World} through a long randomized schedule —
    transfers under all eight data-passing semantics, across all three
    device buffering architectures, with sizes straddling the emulation
    thresholds — while injecting faults: corrupted, duplicated and
    delayed AAL5 PDUs, outputs with no receiver posted, application
    writes into in-flight strong-integrity buffers (the TCOW poke),
    pageout pressure, and mid-transfer removal of system-allocated input
    regions (forcing the region check to re-home zombie pages).

    Two regimes push the run beyond fair-weather schedules:

    - {e exhaustion}: hog actions hold large slices of the overlay pool
      and of free physical memory, so concurrent transfers hit the typed
      degradation ladder — semantics fallback, pool borrowing,
      pageout-reclaim retries and [`Again] backpressure rejections;
    - {e link faults}: one-shot faults on the datagram VCs, plus
      go-back-N {!Genie.Rel_channel} sessions on a dedicated VC pair
      running against drop / duplicate / delay / corrupt / dead-link
      schedules — exercising retransmission recovery, the exponential
      backoff, the retransmission-cap give-up and receive deadlines.

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
  max_in_flight : int;  (** cap on concurrent transfers *)
  trace_tail : int;  (** tracer events kept in the outcome on violation *)
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
  fabric : bool;
      (** drive flow open/close storms against a {!Genie.Flow_table} —
          the recycled-slot slab the fabric engine stores its flow state
          machines in — audited against a shadow model: the free list
          must never reissue a handle (a stale handle can never alias a
          slot's next tenant), freed handles must go inert ([get] =
          [None], [free] = [false]), and live/high-water accounting must
          track the model.  Violations report under the [flow-table]
          invariant. *)
  adapt : bool;
      (** put a {!Genie.Adapt} controller on host a: every a->b transfer
          the schedule sends runs on the controller's current choice,
          with evidence noted per accepted datagram, while the
          transfer-size population shifts mid-run (mixed, then
          large-only, then small-only at the third marks of the
          schedule) — so semantics migrations land at arbitrary points
          under exhaustion, link faults and batching.  The existing
          byte-integrity and transfer-accounting audits prove migration
          loses nothing; an [adapt-oscillation] audit additionally
          bounds observed migrations by the dwell-derived
          {!Genie.Adapt.migration_cap}, and the controller's
          [adapt_epochs] / [adapt_migrations] counters join the audited
          event set and the replay digest. *)
}

val default_config : config
(** seed 1, 2000 steps, checking every step, 128 pool frames, 32 MB,
    6 transfers in flight, 48 trace events, exhaustion, link faults,
    batching, storage, fabric churn and adaptation all on. *)

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
      (** most recent tracer events of both hosts at the end of the run *)
  digest : string;
      (** hex digest of the run's results: driver counts, completion
          sums, audited tracer counters and the final simulated instant.
          Runs of one [config] produce one digest — the seed-replay
          check. *)
}

val event_keys : string list
(** The counter names reported in [outcome.events]. *)

val run : ?trace:Simcore.Tracer.t -> config -> outcome
(** Build a fresh world and execute the schedule.  Deterministic in
    [config].  [trace] installs a shared tracer on both hosts (it is
    enabled for the run), so callers can audit the typed event stream —
    span nesting, counter monotonicity — under the fault schedule. *)

val pp_outcome : Format.formatter -> outcome -> unit
