(** Physical memory: the frame pool and the free list.

    Implements {e I/O-deferred page deallocation} (paper Section 3.1):
    [deallocate] refrains from putting a frame with pending I/O references
    on the free list; instead the frame becomes a zombie, and the final
    [unref_input]/[unref_output] places it on the free list.  This is what
    makes in-place I/O safe when an application frees (or exits with)
    memory that a device is still reading or writing. *)

type t

exception Out_of_frames

val create : Machine.Machine_spec.t -> t
(** Frame pool sized to the machine's physical memory.  It allocates no
    frame and no frame table: a frame's record is created when it is
    first handed out or looked up ({!frame_by_id}), its page when its
    bytes are first touched (see {!Frame.data}), and the table grows to
    cover the highest id handed out or looked up, so creation costs
    O(1) words, not the configured memory. *)

val page_size : t -> int
val total_frames : t -> int
val free_frames : t -> int

val set_trace_scope : t -> Simcore.Tracer.scope -> unit
(** Install the typed trace scope for memory-layer events (frame
    alloc/free counters, I/O-deferred deallocations). *)

val alloc : t -> Frame.t
(** Take a frame off the free list; contents are unspecified.  When
    {!debug_poison} is set the frame is filled with [0xAA] to surface
    missing-zeroing bugs; otherwise allocation is O(1).
    @raise Out_of_frames when physical memory is exhausted. *)

val alloc_zeroed : t -> Frame.t
(** Like {!alloc} but with all-zero contents.  Frames whose bytes are
    provably zero already (tracked via [Frame.known_zero]) skip the
    O(page_size) refill. *)

val alloc_many : t -> int -> Frame.t list
(** Allocate a batch.  On [Out_of_frames] the partially allocated batch
    is released back to the free list before the exception propagates. *)

val deallocate : t -> Frame.t -> unit
(** Release an [Allocated] frame.  If the frame has I/O references it
    becomes a [Zombie] and is reclaimed later; otherwise it goes straight
    to the free list. *)

val ref_input : t -> Frame.t -> unit
val ref_output : t -> Frame.t -> unit

val unref_input : t -> Frame.t -> unit
(** Drop one input reference; reclaims the frame if it is a zombie whose
    last reference this was. *)

val unref_output : t -> Frame.t -> unit

val adopt : t -> Frame.t -> unit
(** Resurrect a zombie frame: a new owner (a re-homed region, see the
    paper's region check) claims it before its pending I/O completes, so
    the final unreference must not free it.  No-op on allocated frames.
    @raise Invalid_argument on free frames. *)

(** {1 Blocks}

    A block hands out [n] frames at once, in the order [n] calls to
    {!alloc} would take them, without creating their records: a frame in
    the block is born [Allocated] at its first {!block_take} or
    {!frame_by_id}, and poisoned if {!debug_poison} was set when the
    block was handed out.  A block is also a FIFO: frames added with
    {!block_add} are taken after the ones it was handed out with. *)

type block

val alloc_block : t -> int -> block
(** Hand out [n] frames as a block.
    @raise Out_of_frames, handing out nothing, when fewer than [n]
    frames are free. *)

val block_take : block -> Frame.t option
(** The block's oldest frame, [None] when it is empty. *)

val block_add : block -> Frame.t -> unit
val block_length : block -> int

val block_iter : block -> (Frame.t -> unit) -> unit
(** Every frame in the block, oldest first (creating the records of
    frames not yet born). *)

val zombie_count : t -> int
(** Number of frames awaiting reclamation (for tests and monitoring). *)

val frame_by_id : t -> int -> Frame.t
(** The frame with this id, creating its record if it was never handed
    out or is an unborn block frame.
    @raise Invalid_argument unless [0 <= id < total_frames t]. *)

val free_ids : t -> int list
(** Contents of the free list, in allocation order: never-allocated ids
    ascending, then recycled ids in the order they were freed (for the
    invariant checker). *)

val debug_poison : bool ref
(** Poison frames with [0xAA] on allocation (the historical default).
    The fuzzer and the byte-correctness tests set it; production-path
    benchmarks leave it off so [alloc] stays O(1). *)

val skip_deferred_dealloc : bool ref
(** Test-only chaos switch: when set, [deallocate] frees frames even while
    devices hold I/O references — i.e. I/O-deferred page deallocation is
    deliberately broken so the invariant checker can prove it notices.
    Never set outside tests. *)
