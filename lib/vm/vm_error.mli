(** Faults and misuse errors raised by the VM and by Genie. *)

exception Segmentation_fault of string  (** access outside any region *)

exception Unrecoverable_fault of string
(** access to a region that is (or, under region hiding, appears) removed *)

exception Semantics_error of string  (** API misuse *)

val segfault : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise [Segmentation_fault] with a formatted message. *)

val unrecoverable : ('a, Format.formatter, unit, 'b) format4 -> 'a
val semantics : ('a, Format.formatter, unit, 'b) format4 -> 'a
