(** Page referencing (paper Section 3.1).

    Page referencing integrates three activities: building the physical
    scatter/gather descriptor for an I/O request, verifying access rights
    (which faults pages in, and — for input into COW regions — faults in
    private writable copies, see Section 3.3), and updating the per-page
    input/output reference counts plus the per-object input counts.

    The returned handle is what the completion path unreferences; frames
    whose deallocation was deferred during the I/O are reclaimed at that
    point. *)

type direction = For_input | For_output

type handle = {
  desc : Memory.Io_desc.t;
  frames : Memory.Frame.t list;
  objects : (Memory_object.t * int) list;
      (** per-object page counts, for the object input-reference totals *)
  direction : direction;
  space : Address_space.t;
  registry_id : int;
      (** id of this handle's {!Vm_sys.io_view} registry entry *)
  mutable active : bool;
}

val reference :
  Address_space.t -> addr:int -> len:int -> direction -> handle
(** @raise Vm_error.Segmentation_fault or [Unrecoverable_fault] when the
    buffer fails the access-rights check, and
    [Memory.Phys_mem.Out_of_frames] when a page cannot be faulted in;
    either way the references already taken are dropped first. *)

val reference_region :
  Address_space.t -> Region.t -> len:int -> direction -> handle
(** Kernel-internal referencing of a system-allocated region's pages
    (cached moved-out regions have their application mappings hidden or
    invalidated, so the application-rights check does not apply).  The
    descriptor covers the first [len] bytes of the region; pages are
    materialized from the backing store if needed. *)

val unreference : handle -> unit
(** Drop the references taken by [reference].  Idempotence is rejected:
    unreferencing twice raises [Invalid_argument]. *)

val pages : handle -> int
