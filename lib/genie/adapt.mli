(** Online per-flow semantics selection.

    The paper's central result is that the winning (allocation x
    integrity x optimization) corner depends on the workload — message
    size, buffer alignment, buffer reuse — with crossovers (Figures
    3/6/7) that no static choice survives.  This controller discovers
    the winner per flow, online, with no knowledge of the tables:

    - {e Evidence}: each flow samples its own datagram lengths plus the
      host's typed counters (cow_breaks, copies, copied_bytes,
      pool_recycles, tx_stalls, sem_fallbacks, backpressure_rejects)
      over a sliding window of fixed-size epochs, read through an O(1)
      {!Simcore.Tracer.probe} in count-only mode — no event history is
      retained, so million-flow runs stay O(active flows).
    - {e Scoring}: every candidate semantics is priced with the same
      calibrated {!Stage_cost} tables the offline estimates use, at the
      window's mean datagram length, with the host's threshold
      conversions applied first (a candidate is scored as what it would
      {e actually run as}).  Pressure evidence then adjusts the model:
      a sem_fallbacks rate blends emulated copy toward plain copy (the
      degradation ladder is observed as evidence, never fought),
      a backpressure_rejects rate penalizes the frame-hungry copy path,
      and a cow_breaks rate adds the predicted TCOW-break page copies
      to strong in-place candidates.
    - {e Hysteresis}: the flow migrates only after [dwell_epochs] on its
      current semantics, and only when the best candidate beats the
      current score by a 5% margin plus a 50 us switching cost
      amortized over one dwell, so noisy evidence cannot cause
      oscillation.  Total
      migrations are therefore bounded by [epochs / dwell_epochs] (see
      {!migration_cap}).

    Migration is safe at any point of a flow's life because semantics
    are applied per datagram ({!Endpoint.output}'s [~sem]); the switch
    simply takes effect from the next datagram.  The controller is
    purely arithmetic over its own observations — no randomness, no
    wall clock — so runs are deterministic and digest-stable across
    engine domain counts. *)

type config = {
  epoch_datagrams : int;  (** datagrams per evidence epoch *)
  window_epochs : int;  (** sliding evidence window, in epochs *)
  dwell_epochs : int;  (** minimum epochs on a semantics before migrating *)
  candidates : Semantics.t list;
      (** corners this flow may run as (first-listed wins score ties) *)
}

val default_config : config
(** 16-datagram epochs, 4-epoch window, 3-epoch dwell, all eight
    corners. *)

type t

val create :
  ?config:config ->
  host:Host.t ->
  scheme:Stage_cost.scheme ->
  sem:Semantics.t ->
  unit ->
  t
(** A controller for one flow on [host], initially running [sem] under
    receiver scheme [scheme].  Puts the host's tracer into count-only
    mode ({!Simcore.Tracer.enable_counters}) so evidence accumulates
    even when full event tracing is off. *)

val semantics : t -> Semantics.t
(** The semantics the flow should use for its next datagram. *)

val note_datagram : t -> len:int -> unit
(** Record one completed datagram of [len] payload bytes.  Closes an
    epoch every [epoch_datagrams] calls; a migration decision is taken
    at each epoch close once the window is full. *)

val epochs : t -> int
(** Epochs closed so far. *)

val migrations : t -> int
(** Migrations performed so far. *)

val last_migration_epoch : t -> int
(** Epoch index (1-based) at which the flow last migrated; 0 if never.
    Convergence checks assert this stays in the first half of a run. *)

val migration_cap : config -> epochs:int -> int
(** Upper bound on migrations any flow can perform in [epochs] epochs
    under the dwell rule: [epochs / dwell_epochs + 1].  The fuzzer's
    oscillation audit checks observed migrations against this. *)

val score : t -> Semantics.t -> float option
(** The controller's current per-datagram cost estimate (microseconds)
    for running the flow as the given candidate — [None] until the
    evidence window has filled.  Exposed for tests and bench reporting;
    {!note_datagram} applies the same scoring internally. *)
