(** Mach-style memory objects (paper reference [18]).

    A memory object maps page indices to physical frames or backing-store
    slots.  Conventional copy-on-write is implemented by {e shadow
    chains}: a shadow object holds privately written pages and defers
    missing pages to the object it shadows.  Objects also carry the
    object-level count of pending input references that Genie uses for
    {e input-disabled COW} (Section 3.3): while any page of the object is
    the target of pending DMA input, copy-on-write sharing of the object
    would actually yield share semantics, so Genie copies physically
    instead. *)

type slot = Resident of Memory.Frame.t | Swapped of Memory.Backing_store.slot

type t = {
  id : int;
  pages : (int, slot) Hashtbl.t;
  mutable shadow : t option;  (** object this one shadows (COW parent) *)
  mutable input_refs : int;  (** pending input refs across all pages *)
  pageable : bool;  (** frames are candidates for the pageout daemon *)
}

val create : ?pageable:bool -> unit -> t
(** A fresh empty object; [pageable] defaults to [true]. *)

val shadow_of : t -> t
(** Create an empty shadow over the given object. *)

val find_local : t -> int -> slot option
(** Look only in this object, not the chain. *)

val find_chain : t -> int -> (t * slot) option
(** Walk the shadow chain; returns the owning object and slot. *)

val set_slot : t -> int -> slot -> unit
val remove_slot : t -> int -> unit

val chain_input_refs : t -> int
(** Total pending input references along the shadow chain. *)
