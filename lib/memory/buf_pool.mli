(** Size-classed pools of reusable byte buffers.

    The data-path hot loops (adapter burst assembly in particular) need
    short-lived scratch buffers of a handful of sizes; allocating a
    fresh [Bytes.t] per message keeps the minor heap churning.  A pool
    recycles buffers in power-of-two size classes: {!take} returns a
    buffer of at least the requested length (its physical length is the
    class size, so callers must track the logical length themselves),
    and {!give} returns it for reuse.

    When {!debug_poison} is set (the fuzzer turns it on), every buffer
    is filled with [0xA5] as it returns to the pool, so any consumer
    that reads recycled bytes it never wrote trips checksum checks
    instead of silently seeing stale payload. *)

type t

val create : unit -> t
(** An empty pool.  Each size class retains at most 64 idle buffers;
    surplus {!give}s are dropped for the GC. *)

val take : t -> len:int -> bytes
(** A buffer of length >= [len] (the smallest power-of-two class, at
    least 64).  Contents are unspecified. *)

val give : t -> bytes -> unit
(** Return a buffer obtained from {!take}.  Buffers whose length is not
    a class size are dropped silently. *)

val debug_poison : bool ref
(** Fill buffers with [0xA5] on {!give} (stale-reuse detector). *)

val hits : t -> int
(** Takes served from the pool without allocating. *)
