(** CRC-32 (IEEE 802.3 polynomial), as used by the AAL5 trailer. *)

type t = int32
(** Running CRC state. *)

val init : t

val update : t -> bytes -> off:int -> len:int -> t
(** Fold [len] bytes of [data] from [off] into the running CRC.
    @raise Invalid_argument if [off] and [len] do not designate a valid
    range of [data]. *)

val finish : t -> int32
val digest : bytes -> int32
(** One-shot CRC of a whole buffer. *)
