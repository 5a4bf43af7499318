(** Reliable message transport: go-back-N ARQ over Genie datagrams.

    The paper's experiments run over a reliable local ATM network, but a
    production I/O framework needs a transport that survives lossy links
    (see the adapter's fault schedule): dropped, corrupted, duplicated
    and delayed PDUs all surface here as missing or failed inputs.  This
    module implements a classic go-back-N sender over a data VC with
    cumulative acknowledgements on a reverse VC:

    - chunks carry their index in the datagram header sequence field;
    - the receiver accepts only the next expected chunk, acknowledging
      cumulatively, and reposts its buffer until the expected chunk
      arrives intact (stale retransmissions are simply overwritten);
    - the sender keeps a window of unacknowledged chunks in flight and
      retransmits the whole window when the acknowledgement timer fires;
    - the timeout backs off exponentially (doubling per consecutive
      barren round, capped at 8x) and gives up after [max_retries]
      consecutive rounds without progress.

    Requires an application-allocated semantics: receive chunks are
    preposted at their final offsets inside the destination buffer, so
    in-place and swap-based semantics deliver the message without a
    reassembly copy.
    A retransmitted chunk must still hold its original data, so the
    sender's semantics must also be strong-integrity unless the
    application refrains from touching the buffer until completion. *)

type t

val create :
  ?chunk:int ->
  ?window:int ->
  ?ack_timeout_us:float ->
  ?max_retries:int ->
  data:Endpoint.t ->
  ack:Endpoint.t ->
  Semantics.t ->
  t
(** [data] carries chunks, [ack] the reverse acknowledgements; the two
    endpoints must be on the same host and use distinct VCs.  Defaults:
    60 KB chunks, window 4, 20 ms acknowledgement timeout, 8 retry
    rounds. *)

val send :
  t ->
  buf:Buf.t ->
  on_complete:((int, Outcome.terminal) result -> unit) ->
  unit
(** Send [buf] reliably.  [Ok r] after the last cumulative ack, with
    [r] total chunk retransmissions; [Error (`Gave_up r)] after
    [max_retries] consecutive timeout rounds produced no progress
    (terminal: the ack input is cancelled and the timer stops) — the
    shared {!Outcome} vocabulary.  Recovery after loss and the give-up
    are traced as [rel.recovered] / [rel.gave_up]. *)

val recv :
  t ->
  ?deadline_us:float ->
  buf:Buf.t ->
  on_complete:(ok:bool -> unit) ->
  unit ->
  unit
(** The receive side completes [~ok:true] when every chunk has arrived
    intact.  [deadline_us] (measured from the call) bounds the wait:
    when it expires first, the pending input is cancelled through its
    {!Endpoint.cancel} handle and [on_complete ~ok:false] fires. *)
