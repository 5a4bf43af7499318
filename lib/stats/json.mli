(** Minimal self-contained JSON: a value type, an emitter with correct
    string escaping, and a recursive-descent parser.  An integer token
    parses as [Int] and a [Float] always prints with a '.' or an
    exponent, so both round-trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** [indent] spaces per level (default 2); 0 prints one line. *)

val of_string : string -> (t, string) result
(** The whole input must be one value; an error names its offset. *)

val member : string -> t -> t option

val to_float : t -> float option
(** An [Int] reads as a float too. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
val equal : t -> t -> bool
