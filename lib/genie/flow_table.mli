(** Generation-stamped slab of reusable flow records.

    The datacenter fabric opens and closes millions of flows per run
    while only a bounded number are active at once, so flow state lives
    in recycled slots managed by a free list: memory is O(high-water
    active flows), not O(total flows).  Handles pack (slot, generation);
    a recycled slot's generation advances, so stale handles are inert —
    {!get} returns [None], {!free} returns [false] — rather than
    aliasing the slot's next tenant.  The fuzzer's fabric-churn regime
    audits that the free list never hands out a handle equal to a live
    one. *)

type handle = int
(** Packed (generation, slot); an immediate, allocation-free value. *)

type 'a t

val create : ?initial:int -> dummy:'a -> unit -> 'a t
(** [initial] (default 64) slots up front; the slab doubles on demand up
    to 2^20 slots.  [dummy] parks in freed slots so released payloads
    are collectable. *)

val alloc : 'a t -> 'a -> handle
(** Take a slot from the free list (growing if none is free), store the
    payload, and return its freshly stamped handle. *)

val get : 'a t -> handle -> 'a option
(** [None] when the handle's generation is stale (the slot was freed,
    and possibly reused, since). *)

val is_live : 'a t -> handle -> bool

val free : 'a t -> handle -> bool
(** Release the slot back to the free list, invalidating the handle.
    [false] (and no effect) when the handle is already stale — freeing
    through a stale handle must never hit the slot's next tenant. *)

val live : 'a t -> int
(** Currently live slots. *)

val capacity : 'a t -> int
(** Allocated slots — the memory actually held, O(high-water). *)

val high_water : 'a t -> int
(** Maximum simultaneous live count observed. *)

val allocs : 'a t -> int
(** Total [alloc] calls — total flows, for accounting; unlike
    {!capacity} this is unbounded. *)
