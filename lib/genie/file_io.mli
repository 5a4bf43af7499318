(** File I/O through the Genie host: the storage dimension.

    One [File_io.t] per host wires a simulated block device
    ({!Store.Block_dev}) and page cache ({!Store.Page_cache}) into the
    host's machinery: cache work charges the host CPU through {!Ops},
    cache frames come from the exhaustion-aware host allocator (so
    storage competes with networking for memory and degrades with the
    same typed [`Again] outcome), and store events land in the tracer
    under the [store] subsystem.

    The call surface mirrors the syscall boundary the paper's CAWL
    analysis prices:

    - {!read}: copy semantics — one {!Machine.Cost_model.Copyout} from
      cache pages to a fresh application buffer;
    - {!write}: buffered copy semantics — one copyin into cache pages,
      completing at CPU speed until writeback throttling bites;
    - {!fsync}: full writeback-plus-barrier stall;
    - {!sendfile}: zero-copy file-to-network — cache frames flow as a
      scatter descriptor straight into {!Net.Adapter.transmit} under
      page referencing, with no host copy on the data path. *)

type t

val create : ?config:Store.Page_cache.config -> Host.t -> t
val cache : t -> Store.Page_cache.t

val open_file : t -> int
val size : t -> fd:int -> int

val read :
  t -> fd:int -> off:int -> len:int -> on_complete:(bytes -> unit) -> (unit, Outcome.pressure) result
(** Read up to [len] bytes at [off] (clamped to EOF) into a fresh
    buffer; the callback fires when the last page is resident and the
    copyout has retired. *)

val write :
  t -> fd:int -> off:int -> data:bytes -> on_complete:(unit -> unit) -> (unit, Outcome.pressure) result
(** Buffered write; see {!Store.Page_cache.write} for the completion
    regimes. *)

val fsync : t -> fd:int -> on_complete:(unit -> unit) -> unit

val sendfile :
  t ->
  Endpoint.t ->
  fd:int ->
  off:int ->
  len:int ->
  ?on_complete:(unit -> unit) ->
  unit ->
  (int, Outcome.pressure) result
(** Transmit [len] file bytes as one datagram on the endpoint's circuit
    without copying: once resident, the cache frames are
    output-referenced and handed to the adapter as the transmit
    scatter list.  Returns the sequence number used (drawn from the
    endpoint's token stream).  [on_complete] fires when the adapter's
    transmit completion has disposed the references.  [Error `Again]
    is cache admission backpressure; the datagram was not sent.
    @raise Invalid_argument if the range is empty, exceeds EOF, or
    does not fit one AAL5 PDU. *)

val writeback_now : t -> unit
val drop_caches : t -> int
