(** The input data-passing path (paper Tables 3 and 4, Section 6.2).

    Input has three stages: {e prepare} (at the input call; overlapped
    with sender and network latencies), {e ready} (when the device needs
    buffering), and {e dispose} (at completion; the only receiver-side
    stage contributing to end-to-end latency with early demultiplexing).

    The module supports all three device buffering architectures.  Which
    one applies is decided by the adapter completion that arrives, so the
    same prepared input works whether the device early-demultiplexes,
    falls back to pooled buffers, or stages data outboard. *)

type spec =
  | App_buffer of Buf.t  (** application-allocated semantics *)
  | Sys_alloc of { space : Vm.Address_space.t; len : int }
      (** system-allocated semantics: the system picks the location *)

type result = {
  buf : Buf.t option;
      (** where the data is; [None] when a strong-integrity input failed
          (the application buffer is untouched) or when the datagram was
          corrupt *)
  payload_len : int;
  seq : int;  (** sender sequence number, [-1] if the header was bad *)
  status : (unit, Outcome.drop) Stdlib.result;
      (** [Ok ()] when CRC and header are both valid; [Error
          `Crc_dropped] when the payload was dropped at the integrity
          check (the shared {!Outcome} vocabulary) *)
}

val ok : result -> bool
(** [ok r] is [r.status = Ok ()]. *)

type pending

exception Backpressure
(** Raised by {!prepare} when a system-allocated input cannot admit its
    region allocation under frame exhaustion, even after a
    pageout-reclaim retry.  {!Endpoint.input} catches it and returns
    [Error `Again]. *)

val token : pending -> int

val prepare :
  Host.t ->
  mode:Net.Adapter.rx_mode ->
  sem:Semantics.t ->
  spec:spec ->
  vc:int ->
  token:int ->
  on_complete:(result -> unit) ->
  pending * Net.Adapter.posted option
(** Run the prepare stage.  For early-demultiplexed VCs the returned
    posted descriptor must be handed to the adapter.  @raise
    Vm_error.Semantics_error on misuse (e.g. [App_buffer] with a
    system-allocated semantics).  @raise Backpressure under frame
    exhaustion (system-allocated specs only, before any state change). *)

val handle_completion : Host.t -> pending -> Net.Adapter.rx_result -> unit
(** Run ready/dispose for an arrived PDU and deliver the result to the
    pending input's continuation. *)

val abandon : Host.t -> pending -> unit
(** Cancel a prepared input that will never complete (test teardown):
    undoes referencing so deferred deallocation is not leaked. *)
