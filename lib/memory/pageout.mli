(** The pageout daemon.

    Scans the list of pageable frames looking for eviction candidates.
    The selection policy implements the paper's {e input-disabled pageout}
    (Section 3.2): frames with a nonzero {e input} reference count are
    skipped — pending input would modify them after pageout — while frames
    with only {e output} references may be paged out normally.  Wired
    frames are never touched.  Because of this rule, Genie's emulated
    semantics never need to wire application buffers at all.

    The daemon itself knows nothing about virtual memory; the VM layer
    registers an [evict] callback that unmaps the page, writes it to the
    backing store and releases the frame.  The callback returns [false]
    when the frame cannot be evicted for VM-level reasons (for example it
    belongs to no object), in which case it is skipped. *)

type t

val create : unit -> t

val register : t -> Frame.t -> unit
(** Put a frame on the pageable list (done when a page is entered into a
    pageable object). *)

val unregister : t -> Frame.t -> unit

val set_evict_hook : t -> (Frame.t -> bool) -> unit

val eligible : t -> Frame.t -> bool
(** Would the daemon consider this frame right now?  Encodes the
    input-disabled-pageout rule; exposed for tests. *)

val scan : t -> target:int -> int
(** Try to evict up to [target] frames; returns how many were evicted.
    Frames are considered in FIFO (approximate LRU) order; skipped frames
    keep their place in the queue. *)
