(** ATM Adaptation Layer 5 framing.

    An AAL5 PDU is the payload, zero padding, and an 8-byte trailer
    (UU, CPI, 16-bit length, CRC-32) packed into a whole number of
    48-byte cell payloads.  The adapter uses [cells_for_len] for wire
    timing; [encode_iov]/[decode_iov] implement the real cellification,
    exercised by the test suite and perfbench's net-layer probe. *)

val cell_payload : int
(** 48 bytes. *)

val cell_total : int
(** 53 bytes: payload plus the 5-byte cell header. *)

val max_pdu : int
(** Largest payload AAL5 can carry (65535). *)

val cells_for_len : int -> int
(** Number of cells needed for a payload of the given length. *)

val wire_bytes : int -> int
(** Bytes on the wire ([cells * 53]) for a payload length. *)

type error = [ `Bad_crc | `Bad_length | `Truncated ]

val encode_iov : Memory.Iovec.t -> Memory.Iovec.t list
(** Cellify a payload view.  Each returned cell is a zero-copy slice of
    payload-plus-trailer; the only byte movement is the CRC fold and the
    (< 56 byte) trailer build. *)

val decode_iov : Memory.Iovec.t list -> (Memory.Iovec.t, error) result
(** Reassemble cell views; the result aliases the cells' storage. *)

val pp_error : Format.formatter -> error -> unit
