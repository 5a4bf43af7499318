(** Application address spaces.

    An address space is a set of regions plus a page table.  Application
    code accesses memory through {!read} and {!write}, which behave like
    loads and stores: protection violations and missing translations go
    through the VM fault handler, which implements

    - {e TCOW} resolution (paper Section 5.1): a write fault on a
      read-only page found in the top memory object copies the page and
      swaps it in the object if its output count is nonzero, and simply
      re-enables writing if the count already dropped to zero;
    - conventional COW faults for pages found down the shadow chain;
    - demand-zero fill and pagein from the backing store;
    - {e region hiding} (Section 4): faults in regions that are not
      unmovable or moved-in are unrecoverable, exactly as if the region
      had been removed.

    The kernel-side entry points (wiring, invalidation, reinstatement,
    page swapping, region caching) do not check protections — they are
    the mechanisms Genie's data-passing operations are built from. *)

type t

val create : Vm_sys.t -> t
val vm : t -> Vm_sys.t
val id : t -> int
val page_size : t -> int

(** {1 Regions} *)

val map_region :
  ?state:Region.movability -> ?pageable:bool -> ?populate:bool -> t ->
  npages:int -> Region.t
(** Allocate a fresh region.  [state] defaults to [Unmovable] (ordinary
    application memory), [pageable] to [true], [populate] to [true]
    (zero-filled pages entered eagerly; pass [false] for demand-zero).
    @raise Memory.Phys_mem.Out_of_frames when populating finds no frame;
    the partly populated region is removed first. *)

val remove_region : t -> Region.t -> unit
(** Unmap and deallocate; page deallocation is I/O-deferred.  The region
    becomes invalid. *)

val find_region : t -> vaddr:int -> Region.t option
val region_of_addr : t -> vaddr:int -> Region.t
(** @raise Vm_error.Segmentation_fault if no region covers the address. *)

val read_alloc_deficit : t -> addr:int -> len:int -> int
(** Number of frames a read of [addr, addr+len) would still have to
    allocate: unmapped pages whose backing page is swapped out or was
    never created.  Pure (no faulting, no allocation) — lets admission
    checks price a copyin or reference walk under frame exhaustion
    before committing to it. *)

val regions : t -> Region.t list
val base_addr : Region.t -> page_size:int -> int

(** {1 Application access (faulting)} *)

val read : t -> addr:int -> len:int -> bytes
val write : t -> addr:int -> bytes -> unit

val write_iov : t -> addr:int -> Memory.Iovec.t -> unit
(** Store a scatter-gather view directly, page chunk by page chunk, with
    the same faulting behaviour and page order as {!write} but without
    materializing the view into an intermediate buffer. *)

val iter_read :
  t -> addr:int -> len:int ->
  (buf_off:int -> Memory.Frame.t -> off:int -> len:int -> unit) -> unit
(** Resolve the range for reading and hand each physical chunk to the
    callback ([buf_off] is the chunk's offset within the range) — the
    zero-copy analogue of {!read}. *)

val iter_write :
  t -> addr:int -> len:int ->
  (buf_off:int -> Memory.Frame.t -> off:int -> len:int -> unit) -> unit
(** Resolve the range for writing, with the same faulting behaviour and
    page order as {!write}, and hand each physical chunk to the callback
    to store into — {!write} without a source buffer. *)

val touch : t -> addr:int -> len:int -> unit
(** Fault in (for reading) every page of the range. *)

val resolve_read : t -> vpn:int -> Memory.Frame.t
val resolve_write : t -> vpn:int -> Memory.Frame.t

val prot_of : t -> vpn:int -> Prot.t option
(** Current PTE protection, [None] if unmapped (for tests). *)

(** {1 Kernel mechanisms} *)

val make_readonly : t -> Region.t -> first:int -> pages:int -> unit
(** Remove write permission on a page range of a region (TCOW arming).
    [first] is the page index within the region. *)

val invalidate : t -> Region.t -> first:int -> pages:int -> unit
val reinstate : t -> Region.t -> unit
(** Restore read/write access to every mapped page of a region. *)

val wire : t -> Region.t -> unit
val unwire : t -> Region.t -> unit

val wire_range : t -> Region.t -> first:int -> pages:int -> unit
(** Wire only a page range of a region (the pages an I/O buffer
    occupies); counts nest with other overlapping wirings. *)

val unwire_range : t -> Region.t -> first:int -> pages:int -> unit

val swap_into_region :
  t -> Region.t -> page:int -> Memory.Frame.t -> Memory.Frame.t option
(** [swap_into_region t r ~page f] makes [f] the backing frame of the
    region page, with write access, returning the displaced frame (now
    owned by the caller), or [None] if the page was not resident. *)

val map_object_pages : t -> Region.t -> unit
(** Enter read-write translations for every resident page of the
    region's object ("map region" after a move-input fill). *)

val ensure_region : t -> Region.t -> frames:Memory.Frame.t list -> Region.t
(** Region check: return the region if it is still present; if the
    application removed it during I/O, build a replacement region over
    the same pages (resurrecting frames whose deallocation was deferred),
    so the location returned to the application stays valid. *)

val clone_cow : t -> t
(** Fork-style clone.  Regions whose objects have pending input
    references are copied physically ({e input-disabled COW},
    Section 3.3); all others are shared copy-on-write through shadow
    objects, with both parent and child downgraded to read-only. *)

(** {1 Region caching (weak move / emulated move)} *)

val cache_region : t -> Region.t -> unit
(** Enqueue a [Moved_out] or [Weakly_moved_out] region on the matching
    per-address-space reuse queue. *)

val dequeue_cached : t -> kind:Region.movability -> npages:int -> Region.t option
(** Take a cached region of the exact size off the queue ([kind] selects
    which queue); invalid (removed) regions are skipped and dropped. *)

val destroy : t -> unit
(** Process exit: remove every region (deallocation is I/O-deferred). *)
