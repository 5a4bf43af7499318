(** Network adapter model (Credit Net-like ATM host interface).

    Transmission gathers data from host page frames by burst-mode DMA and
    serializes it cell by cell; reception supports the paper's three
    device input-buffering architectures (Section 6.2):

    - {e early demultiplexed}: per-VC lists of posted scatter descriptors;
      payload DMAs straight into the posted buffers (which may be
      application pages — in-place I/O — or aligned system buffers);
    - {e pooled in-host}: fixed-size page buffers taken from a pool,
      filled without regard to the destination buffer, header first;
    - {e outboard}: data staged in adapter memory (store-and-forward) and
      DMAed to host buffers only at dispose time.

    Data really moves: gathers read the sender's frames at serialization
    time (so a weak-integrity overwrite during transmission is visible on
    the wire), and early-demultiplexed scatters write receiver frames
    directly, bypassing page tables, like real DMA.

    An adapter with early-demultiplexed mode but no posted descriptor
    falls back to the pooled path, as in the paper ("the application did
    not inform the location of its input buffers before physical
    input"). *)

type t

type rx_mode = Early_demux | Pooled | Outboard

type posted = {
  vc : int;
  token : int;  (** caller's identifier for this posted input *)
  hdr_desc : Memory.Io_desc.t;
  mutable payload_desc : Memory.Io_desc.t option;
  ready : unit -> Memory.Io_desc.t;
      (** invoked at first data arrival when [payload_desc] is [None];
          lets Genie allocate the aligned system buffer at ready time *)
}

type completion =
  | Demuxed of { posted : posted; payload_len : int; overrun : bool }
  | Pooled_chain of {
      frames : Memory.Frame.t list;
      hdr_len : int;
      payload_len : int;  (** payload begins at offset [hdr_len] *)
    }
  | Outboard_stored of { id : int; hdr_len : int; payload_len : int }

type rx_result = { vc : int; completion : completion; crc_ok : bool }

val create :
  Simcore.Engine.t -> Net_params.t -> page_size:int -> name:string -> t

val connect : t -> t -> unit
(** Wire two adapters back to back (full duplex). *)

val params : t -> Net_params.t

val set_trace_scope : t -> Simcore.Tracer.scope -> unit
(** Install the typed trace scope for adapter events: per-PDU transmit
    spans, per-burst serialization windows, credit stalls and received
    PDUs. *)

val set_rx_mode : t -> vc:int -> rx_mode -> unit
(** Default mode for unknown VCs is [Early_demux]. *)

val set_pool_supply : t -> (unit -> Memory.Frame.t option) -> unit
(** Install the overlay-pool source for the pooled receive path.  [None]
    means the pool is exhausted: the adapter hands back the frames of the
    partially received PDU through {!set_pool_return}, swallows the rest
    of the PDU, and completes it as an empty [Pooled_chain] with
    [crc_ok = false] — the same typed failure a line error produces.
    Each such drop bumps the [rx_drop_nopool] trace counter. *)

val set_pool_return : t -> (Memory.Frame.t -> unit) -> unit
(** Where frames of a dropped partial chain are returned. *)

val set_rx_complete : t -> (rx_result -> unit) -> unit

val post_input : t -> posted -> unit
val posted_count : t -> vc:int -> int

val cancel_posted : t -> vc:int -> token:int -> bool
(** Remove a posted descriptor that was never consumed (e.g. its PDU
    arrived through the pooled fallback path).  Returns [false] if no
    such descriptor is queued. *)

val transmit :
  t ->
  vc:int ->
  hdr:bytes ->
  desc:Memory.Io_desc.t ->
  on_tx_complete:(unit -> unit) ->
  unit
(** Queue a PDU.  [on_tx_complete] fires when the last burst has left the
    adapter (output dispose time at the sender). *)

(** {1 Credit-based flow control}

    The Credit Net network (paper reference [14]) is credit-based: a
    sender may only put cells on a VC for which the receiver has granted
    buffer credits; credits return as the receiver consumes data.  By
    default VCs are uncredited (effectively infinite credit, which is
    how the latency experiments run — the receiver always drains at link
    rate).  Setting a limit enables real backpressure: transmission
    stalls mid-PDU until credits return.

    Credit arbitration is an active-set discipline: a stalled VC {e
    parks} off the transmit path (its later PDUs divert to a per-VC
    queue so per-VC order holds) and the transmitter moves on to other
    VCs — one stalled VC never head-of-line blocks the adapter.  A
    credit grant touches only its own VC and unparks it when the window
    covers the waiting burst; no path scans the set of VCs, so
    thousands of independently credited VCs contend in O(1) per
    event.  Each park bumps the [tx_stalls] trace counter. *)

val set_credit_limit : t -> vc:int -> cells:int -> unit
(** Grant the {e sender} an initial window of [cells] for the VC.  Must
    cover at least one burst or the PDU deadlocks; [transmit] raises
    [Invalid_argument] if a burst can never fit the window. *)

val credits_available : t -> vc:int -> int option
(** [None] if the VC is uncredited. *)

(** {1 Link-fault schedule}

    A deterministic per-VC fault model on the {e sending} adapter.  Each
    PDU's fate is decided once, at [transmit]: a queued one-shot fault is
    consumed first; otherwise, if probabilistic rates are installed, a
    single draw from the caller-supplied {!Simcore.Rng} picks against the
    cumulative rates.  All randomness flows from that Rng, so any failure
    run replays bit-identically from its seed.  Fault-free VCs pay one
    hash lookup and draw nothing — their timing is untouched.

    - [Drop]: the cells serialize and the receiver discards them; credits
      return on the normal schedule but no completion is delivered.
    - [Corrupt]: one byte of the first burst flips after the sender's CRC,
      so the receiver sees [crc_ok = false], as for a line error.
    - [Duplicate]: the PDU is transmitted twice back to back.
    - [Delay_us d]: arrival shifts by [d] microseconds.  Arrivals stay
      monotonic within the VC (ATM preserves per-VC cell order): later
      PDUs on the same VC gate behind the delayed one, while traffic on
      other VCs overtakes — delay-reorder. *)

type fault = Drop | Corrupt | Duplicate | Delay_us of float

type fault_rates = {
  p_drop : float;
  p_corrupt : float;
  p_duplicate : float;
  p_delay : float;
  delay_us : float;  (** the delay a [p_delay] hit applies *)
}

val inject_fault : t -> vc:int -> fault -> unit
(** Queue a one-shot fault for the next PDU transmitted on [vc]. *)

val set_fault_rates : t -> vc:int -> rng:Simcore.Rng.t -> fault_rates -> unit
(** Install probabilistic faulting on [vc].  The probabilities must sum to
    at most 1; the remainder is the fault-free case.
    @raise Invalid_argument if they sum over 1. *)

val clear_faults : t -> vc:int -> unit
(** Drop the fault schedule (one-shots and rates) for [vc]. *)

val corrupt_next_pdu : t -> vc:int -> unit
(** [inject_fault t ~vc Corrupt] — kept as sugar for the tests. *)

val outboard_read : t -> id:int -> off:int -> len:int -> bytes
(** Read from a stored outboard buffer; [off] is PDU-relative (header
    included). *)

val outboard_free : t -> id:int -> unit
