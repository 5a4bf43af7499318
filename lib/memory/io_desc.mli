(** Scatter/gather I/O descriptors.

    A descriptor is the list of physical segments — (frame, offset,
    length) triples — that page referencing builds for a DMA request.
    The network adapter reads from (gathers) and writes into (scatters)
    descriptors directly at the physical level, bypassing page tables,
    exactly like DMA hardware.  This is what makes the paper's
    input-disabled COW scenario reproducible: DMA input through a
    descriptor modifies memory without generating write faults. *)

type seg = { frame : Frame.t; off : int; len : int }
type t

val of_segs : seg list -> t
val total_len : t -> int

val single : Frame.t -> off:int -> len:int -> t

val gather : t -> off:int -> len:int -> bytes
(** Read [len] bytes starting at logical offset [off] of the descriptor. *)

val to_iovec : ?off:int -> ?len:int -> t -> Iovec.t
(** Zero-copy view over the descriptor's byte range ([off] defaults to
    0, [len] to the rest); aliases the underlying frames. *)

val scatter : t -> off:int -> src:bytes -> src_off:int -> len:int -> unit
(** Write bytes into the descriptor starting at logical offset [off]. *)

val frames : t -> Frame.t list
(** Frames covered, in order, without duplicates. *)
