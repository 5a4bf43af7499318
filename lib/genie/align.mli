(** Input alignment and reverse copyout (paper Section 5.2, Figure 2).

    Emulated copy (and aligned share) input passes data from system pages
    to the application buffer by page swapping.  Swapping requires the
    source pages to hold payload at the {e same page offsets} as the
    application buffer — Genie's system input alignment allocates system
    buffers that way, and pooled buffers happen to be aligned when the
    application aligned its buffer to the unstripped header length.

    Pages fully covered by payload are swapped.  Partially filled pages
    use {e reverse copyout}: if the partial data is shorter than the
    threshold it is simply copied out; otherwise the rest of the system
    page is completed with the application page's own bytes and the pages
    are swapped, preserving the application's surrounding data.  If the
    source is not aligned at all, everything is copied out. *)

type outcome = {
  swapped_pages : int;
  copied_bytes : int;  (** copyout plus completion bytes *)
  consumed : bool array;
      (** source frames that were swapped into the application space and
          are no longer the caller's to free *)
}

val deliver :
  Ops.t ->
  buf:Buf.t ->
  payload_len:int ->
  src_frames:Memory.Frame.t array ->
  src_off:int ->
  threshold:int ->
  displaced:(Memory.Frame.t -> unit) ->
  outcome
(** Move [payload_len] bytes — living in [src_frames] starting at page
    offset [src_off] — into [buf].  [displaced] receives application
    frames displaced by swaps (the caller returns them to the pool or the
    free list).  Charges [Swap_pages] and [Copyout] on the ops context as
    appropriate. *)
