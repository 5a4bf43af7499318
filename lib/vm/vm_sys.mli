(** The VM system of one simulated host.

    Owns physical memory, the backing store, the pageout daemon and the
    frame-ownership registry (frame -> (object, page index)) that the
    eviction path needs.  Address spaces register an unmap callback here
    so that pageout can tear down translations. *)

type space_view = {
  sv_id : int;
  sv_regions : unit -> Region.t list;
  sv_ptes : unit -> (int * Page_table.pte) list;  (** (vpn, pte) pairs *)
  sv_rmap_errors : unit -> string list;
      (** {!Page_table.check_rmap} over the space's table: reverse-map
          vs translation consistency violations, empty when clean *)
}
(** Introspection window onto one address space, registered by
    {!Address_space.create}.  The invariant checker walks these instead of
    depending on the (higher-level) address-space module. *)

type io_dir = Io_input | Io_output

type io_view = {
  io_id : int;
  io_dir : io_dir;
  io_frames : Memory.Frame.t list;
      (** referenced frames, with multiplicity, in buffer order *)
  io_objects : (Memory_object.t * int) list;
      (** per-object page counts charged to the object input totals *)
}
(** One live page-referencing handle (an I/O in flight).  Registered by
    [Page_ref.reference]/[reference_region], withdrawn at unreference, so
    the registry is exactly the set of scatter/gather descriptors a
    device may still read or write. *)

type t = {
  spec : Machine.Machine_spec.t;
  phys : Memory.Phys_mem.t;
  pageout : Memory.Pageout.t;
  backing : Memory.Backing_store.t;
  frame_owner : (int, Memory_object.t * int) Hashtbl.t;
  mutable unmappers : (Memory.Frame.t -> unit) list;
  mutable spaces : space_view list;
  io_registry : (int, io_view) Hashtbl.t;
  mutable next_io_id : int;
  mutable next_space_id : int;
      (** address-space numbering, per VM system so trace labels replay
          bit-identically across runs in one process *)
  reserve_target : int;
  mutable reserve : Memory.Frame.t list;
      (** emergency frame reserve for fault handling (a pager min-free
          watermark): off the free list, invisible to admission checks,
          spent only when a fault finds memory exhausted with nothing
          evictable, restocked as memory drains *)
  mutable trace : Simcore.Tracer.scope option;
      (** typed trace scope for VM-layer events (faults, TCOW breaks,
          pageout, region hiding); installed by the host, [None] until
          then *)
}

val create : Machine.Machine_spec.t -> t
val page_size : t -> int

val set_trace_scope : t -> Simcore.Tracer.scope -> unit

val register_unmapper : t -> (Memory.Frame.t -> unit) -> unit

val register_space : t -> space_view -> unit
val space_views : t -> space_view list

val register_io :
  t ->
  dir:io_dir ->
  frames:Memory.Frame.t list ->
  objects:(Memory_object.t * int) list ->
  int
(** Returns the registry id to pass to {!forget_io}. *)

val forget_io : t -> int -> unit
val io_views : t -> io_view list

val insert_page : t -> Memory_object.t -> int -> Memory.Frame.t -> unit
(** Enter a resident page into an object: updates the slot, the ownership
    registry and (for pageable objects) the pageout candidate list. *)

val remove_page : t -> Memory_object.t -> int -> unit
(** Drop a page from an object.  A resident frame is deallocated (which
    defers to zombie state if I/O is pending); a swapped slot is freed. *)

val replace_page : t -> Memory_object.t -> int -> Memory.Frame.t -> Memory.Frame.t
(** [replace_page t obj idx new_frame] swaps the resident page of [idx]
    for [new_frame] and returns the old frame {e without} deallocating it
    — the caller decides its fate (TCOW deallocates it after I/O; input
    page swapping hands it to the system buffer). *)

val materialize : t -> Memory_object.t -> int -> Memory.Frame.t
(** Resident frame for the object page, paging it in from the backing
    store if necessary.  @raise Invalid_argument if the object has no such
    page. *)

val run_pageout : t -> target:int -> int

val alloc_pressured : t -> Memory.Frame.t
(** Allocate a frame, waking the pageout daemon under memory pressure:
    if the free list is empty, evict pageable frames and retry, and as a
    last resort draw on the emergency reserve (traced as
    [mem.emergency], counter [emergency_allocs]).
    @raise Memory.Phys_mem.Out_of_frames when nothing can be evicted
    and the reserve itself is exhausted (all remaining memory is wired,
    kernel-owned or I/O-referenced). *)

val alloc_pressured_zeroed : t -> Memory.Frame.t
(** {!alloc_pressured} with all-zero contents; frames the physical layer
    knows are still zero skip the O(page_size) refill. *)

val reserve_frames : t -> Memory.Frame.t list
(** Current emergency-reserve frames (for the invariant checker, which
    counts the reserve as a frame owner). *)
