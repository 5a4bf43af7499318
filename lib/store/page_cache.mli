(** Simulated page cache over the block device.

    Files are page-granular views onto device blocks (a bump allocator
    lays sequentially-grown files onto contiguous blocks).  The cache
    holds file pages in real {!Memory.Frame.t}s, so cached bytes are the
    same bytes DMA and network transmission touch — zero-copy file reads
    hand out {!Memory.Io_desc.t} scatter lists over cache frames.

    The policy machinery reproduces the classic buffered-write regimes
    of the paper's CAWL analysis:

    - {e cached writes} cost one copyin plus per-page lookups and
      complete at CPU speed; dirty pages accumulate and are written
      back in batches, either by the interval flusher or when the dirty
      count crosses [dirty_high];
    - {e bandwidth-dominated writes}: once the dirty count exceeds
      [dirty_throttle], write completions queue behind writeback
      progress, so sustained writers observe media bandwidth instead of
      memory bandwidth;
    - {e fsync} forces the file's dirty pages out and then a device
      flush barrier, exposing the full seek-plus-transfer stall.

    Reads miss into device transfers with a windowed sequential
    detector issuing best-effort read-ahead.  Frame allocation is
    injected (the Genie host wires it to its exhaustion-aware
    allocator), and when neither allocation nor eviction of a clean
    page can produce a frame, admission fails with the shared typed
    backpressure outcome [`Again] — the same degradation contract as
    the network paths.  All iteration over cache state is sorted before
    effects, so runs are bit-deterministic. *)

type config = {
  max_pages : int;  (** cache capacity in page frames *)
  readahead_window : int;  (** pages fetched ahead of a sequential run *)
  readahead_min_run : int;  (** run length that triggers read-ahead *)
  writeback_interval_us : float;  (** periodic flusher tick *)
  dirty_high : int;  (** dirty pages that trigger immediate writeback *)
  dirty_throttle : int;
      (** dirty pages beyond which write completions queue behind
          writeback (the bandwidth-dominated regime) *)
}

val default_config : config

type charging = {
  charge : Machine.Cost_model.op -> bytes:int -> unit;
  charge_n : Machine.Cost_model.op -> bytes:int -> n:int -> unit;
  charged_until : unit -> Simcore.Sim_time.t;
}
(** CPU charging callbacks; the Genie host wires these to {!Ops} so
    cache work queues on the host CPU and lands in Table 6 samples. *)

type t

val create :
  ?config:config ->
  engine:Simcore.Engine.t ->
  dev:Block_dev.t ->
  charging:charging ->
  alloc_frame:(unit -> Memory.Frame.t option) ->
  free_frame:(Memory.Frame.t -> unit) ->
  unit ->
  t
(** [alloc_frame] may fail ([None]) under exhaustion — the cache then
    falls back to evicting a clean page, and failing that rejects the
    operation with [`Again].  [free_frame] returns frames dropped by
    {!drop_caches} (capacity evictions recycle frames in place). *)

val set_trace_scope : t -> Simcore.Tracer.scope -> unit
(** Store-subsystem counters: [cache_hits], [cache_misses],
    [readaheads], [writebacks], [fsyncs], [cache_evictions],
    [wb_throttles], [store_rejects]. *)

val dev : t -> Block_dev.t

val open_file : t -> int
(** Create an empty file; returns its descriptor. *)

val file_size : t -> int -> int

val read :
  t ->
  fd:int ->
  off:int ->
  len:int ->
  on_complete:(Memory.Io_desc.t -> unit) ->
  (unit, [ `Again ]) result
(** Read [len] bytes at [off] (clamped to EOF).  [on_complete] receives
    a scatter list aliasing the cache frames — a zero-copy view sliced
    exactly to the requested range — once every page is resident: at
    the CPU retire instant for pure hits, at device completion for
    misses.  The frames are pinned against eviction until the callback
    is invoked; consume the descriptor promptly (add I/O references for
    anything longer-lived, as sendfile does).  [Error `Again]: a missing
    page could not be admitted; nothing changed and the callback will
    not fire. *)

val write :
  t ->
  fd:int ->
  off:int ->
  data:bytes ->
  on_complete:(unit -> unit) ->
  (unit, [ `Again ]) result
(** Buffered write.  Charges one {!Machine.Cost_model.Copyin} over the
    data plus per-page lookups; partial pages inside EOF read-modify-
    write through the device.  [on_complete] fires at CPU retire in the
    cached regime, but queues behind writeback progress once the dirty
    count exceeds [dirty_throttle].  Extends the file if the range ends
    beyond EOF. *)

val fsync : t -> fd:int -> on_complete:(unit -> unit) -> unit
(** Write back the file's dirty pages, then issue a device flush
    barrier; [on_complete] fires when the barrier retires. *)

val writeback_now : t -> unit
(** Kick an immediate writeback of everything dirty (the flusher's
    action, callable directly). *)

val drop_caches : t -> int
(** Evict every clean, unreferenced page (frames go back through
    [free_frame]); returns the number dropped.  Cold-read benchmarks
    use this between phases. *)

val dirty_pages : t -> int
val is_cached : t -> fd:int -> page:int -> bool
