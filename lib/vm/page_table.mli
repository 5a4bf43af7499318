(** Per-address-space page tables.

    Maps virtual page numbers to (frame, protection) entries and keeps a
    reverse map from frame id to the virtual pages mapping it, which the
    pageout daemon's unmap step needs. *)

type pte = { mutable frame : Memory.Frame.t; mutable prot : Prot.t }
type t

val create : unit -> t

val find : t -> int -> pte option
(** Lookup by virtual page number. *)

val map : t -> vpn:int -> frame:Memory.Frame.t -> prot:Prot.t -> unit
(** Enter or replace a translation. *)

val unmap : t -> vpn:int -> unit

val vpns_of_frame : t -> Memory.Frame.t -> int list
(** Virtual pages currently mapping the frame, ascending.  Backed by a
    per-frame hash set, so lookup is O(set size), not O(mappings). *)

val iter : t -> (vpn:int -> pte -> unit) -> unit
(** Visit every translation (unspecified order; for checkers and tests). *)

val check_rmap : t -> string list
(** Consistency audit of the reverse map against the translations: every
    entry present in its frame's set, every set pair backed by a live
    entry, no empty sets, totals equal the number of entries.  Returns
    human-readable violation strings (empty = consistent). *)

val unsafe_rmap_drop : t -> vpn:int -> frame_id:int -> unit
(** Test-only corruption hook: silently drop one reverse-map pair so
    checker tests can prove {!check_rmap} notices.  Never call outside
    tests. *)
