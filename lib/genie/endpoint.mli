(** Genie endpoints: the application-facing API.

    An endpoint binds a virtual circuit on a host's adapter to a device
    input-buffering mode and carries the bookkeeping that matches arrived
    PDUs to pending input operations.  Applications perform datagram I/O
    with any semantics of the taxonomy through {!output} and {!input};
    the semantics may differ per call and between the two ends. *)

type t

val create : Host.t -> vc:int -> mode:Net.Adapter.rx_mode -> t
val host : t -> Host.t
val vc : t -> int

val output :
  t ->
  sem:Semantics.t ->
  buf:Buf.t ->
  ?seq:int ->
  ?on_complete:(unit -> unit) ->
  unit ->
  (Output_path.outcome, Outcome.pressure) result
(** Send one datagram.  Returns after the prepare stage is charged; the
    callback fires when the dispose stage retires.  [seq] overrides the
    header sequence number (endpoint-assigned by default) — transport
    protocols above Genie use it to identify retransmissions.
    [Error `Again] (shared {!Outcome} vocabulary) is backpressure under
    frame exhaustion: nothing was sent and [on_complete] will not fire
    (see {!Output_path.output}). *)

type handle
(** A posted input, cancellable until its completion is dispatched —
    symmetric with {!output}'s outcome value. *)

val input :
  t ->
  sem:Semantics.t ->
  spec:Input_path.spec ->
  on_complete:(Input_path.result -> unit) ->
  (handle, Outcome.pressure) result
(** Post an input.  With early demultiplexing this preposts the buffer
    descriptors to the adapter; with pooled or outboard buffering the
    input matches arrivals in FIFO order (including PDUs that arrived
    before the call).  The returned handle cancels just this input via
    {!cancel}; discard it with [ignore] when cancellation is not
    needed.  [Error `Again] is backpressure: a system-allocated prepare
    could not admit its region allocation under frame exhaustion even
    after a pageout-reclaim retry; nothing was posted.  App-buffer
    inputs never return [`Again]. *)

val cancel : handle -> bool
(** Cancel one pending input: unposts its adapter descriptor and
    abandons the prepared kernel state (dropping page references,
    requeueing cached regions, releasing system buffers).  Returns
    [false] if the input already completed, or was already cancelled —
    nothing to undo. *)

val token : handle -> int
(** The endpoint token identifying this input; batched input
    completions carry it (io_uring's [user_data]). *)

val pending_inputs : t -> int

val alloc_seq : t -> int
(** Draw the next sequence number / token from the endpoint's stream —
    what {!output}, {!input} and {!submit_batch} do implicitly.  Callers
    that build datagrams outside the output path ({!File_io.sendfile})
    use this so all traffic stays in one ordered stream. *)

val drain : t -> unit
(** Cancel all pending inputs, oldest first (test teardown); equivalent
    to calling {!cancel} on every outstanding handle. *)

(** {1 Batched submission and completion}

    Submit a whole array of operations in one call and collect their
    completions by reaping the endpoint instead of supplying one
    callback per operation.  A batch runs each entry through {!output}
    or {!input}'s path in submission order, consuming the endpoint's
    token stream as N sequential calls would, so every simulated metric
    is bit-identical (property-tested in [test_ring]).  It is an API
    convenience, not a host fast path: a batched message allocates a
    few percent more host words than a single-shot one
    (docs/PERFORMANCE.md).  A batch is traced as one [ring.submit] span
    and a reap as one [ring.reap] event. *)

type submission =
  | Sub_output of { sem : Semantics.t; buf : Buf.t; seq : int option }
      (** as {!output}: [seq = None] draws from the endpoint tokens *)
  | Sub_input of { sem : Semantics.t; spec : Input_path.spec }  (** as {!input} *)

type sub_outcome =
  | Out_accepted of Output_path.outcome * int
      (** admitted output and the sequence number it carries *)
  | In_accepted of handle  (** posted input, cancellable mid-batch *)
  | Rejected of Outcome.pressure
      (** typed backpressure, per entry (shared {!Outcome} vocabulary):
          the rest of the batch still proceeds (partial admission) *)

type completion =
  | Out_complete of { seq : int }  (** the output's dispose retired *)
  | In_complete of { token : int; result : Input_path.result }
      (** a posted input delivered; [token] matches {!token} of the
          handle returned at submission *)

val submit_batch : t -> submission array -> sub_outcome array
(** Run the entries through the output/input paths in submission order.
    Returns one outcome per entry, in order.  Completions are not
    returned here — each is queued on the endpoint as its operation
    retires; {!reap_completions} collects them. *)

val reap_completions : t -> completion list
(** Take every queued completion, oldest first.  The queue is
    unbounded: none is ever lost.  Each completion queued while 256 or
    more were already waiting bumps the [ring_cq_overflows] trace
    counter.  Cancelled inputs produce no completion. *)

val completions_available : t -> int
