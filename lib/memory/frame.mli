(** Physical page frames.

    A frame carries real backing bytes — all simulated I/O moves data
    through frames, so end-to-end byte correctness is checkable.  The
    bytes are born on first touch: a frame's page is allocated, all
    zero, at the first {!data} (or any call that reads or writes it),
    so a pool of frames nobody touches costs only their records.  Frames
    also carry the per-page input and output reference counts that
    Genie's page referencing scheme maintains (Section 3.1 of the paper):
    a page with a nonzero count has pending DMA and must not be handed to
    another process, and a page with nonzero {e input} count must not be
    paged out (input-disabled pageout, Section 3.2). *)

type state =
  | Free  (** on the free list *)
  | Allocated  (** owned by a memory object or kernel buffer *)
  | Zombie
      (** deallocated while I/O was pending; reclaimed when the last I/O
          reference is dropped (I/O-deferred page deallocation) *)

type page
(** A frame's bytes, readable only through {!data}. *)

type t = {
  id : int;
  size : int;  (** page size in bytes *)
  mutable page : page;
  mutable input_refs : int;
  mutable output_refs : int;
  mutable wired : int;
  mutable state : state;
  mutable pageable : bool;  (** on the pageout daemon's candidate list *)
  mutable known_zero : bool;
      (** contents are provably all-zero (never-yet-allocated frames);
          maintained by {!Phys_mem} alone and cleared whenever the frame
          is handed out, so [alloc_zeroed] can skip the O(page_size)
          refill without trusting owners to report their writes *)
}

val make : id:int -> size:int -> t
(** A [Free], unreferenced, [known_zero] frame whose page is not yet
    allocated. *)

val data : t -> bytes
(** The frame's bytes, allocated all-zero on the first call. *)

val io_referenced : t -> bool
(** True if the frame has pending input or output references. *)

val page_size : t -> int

val fill : t -> char -> unit
(** Overwrite the whole frame with one byte (used for zeroing and for
    poisoning freed pages in tests). *)

val blit_in : t -> dst_off:int -> src:bytes -> src_off:int -> len:int -> unit
val blit_out : t -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit
val copy_contents : src:t -> dst:t -> unit
