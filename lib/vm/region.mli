(** Virtual memory regions and their movability states.

    The paper implements system-allocated I/O buffers as regions marked
    {e moved in}; regions that are not system-allocated (heap, stack,
    statically allocated buffers) are {e unmovable}.  The transitional
    states ([Moving_out], [Moving_in]) keep virtual addresses reserved
    while I/O is in flight so errors can be recovered gracefully;
    [Moved_out] is the region-hiding state of emulated move output, and
    [Weakly_moved_out] is the region-caching state of (emulated) weak
    move. *)

type movability =
  | Unmovable
  | Moved_in
  | Moving_in
  | Moving_out
  | Moved_out  (** hidden: pages invalidated but still allocated *)
  | Weakly_moved_out  (** cached for reuse: pages remain mapped *)

type t = {
  id : int;
  start_vpn : int;
  npages : int;
  mutable state : movability;
  mutable obj : Memory_object.t;
  mutable wired : int;
  mutable wire_log : (int * int * Memory.Frame.t list) list;
      (** one entry per active wiring, [(first, pages, frames)]: the
          exact frames that wiring pinned.  Unwire decrements precisely
          its own entry's frames — residency can change mid-flight (COW
          and TCOW breaks, swap-ins), so a fresh residency snapshot at
          unwire time would decrement frames that were never wired.  A
          whole-region wiring logs [(-1, -1, frames)]. *)
  mutable valid : bool;  (** false once removed from its address space *)
}

val make :
  start_vpn:int -> npages:int -> state:movability -> obj:Memory_object.t -> t

val contains_vpn : t -> int -> bool

val movability_name : movability -> string
