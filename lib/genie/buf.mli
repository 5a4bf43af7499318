(** Application buffer descriptors: a byte range in an address space. *)

type t = { space : Vm.Address_space.t; addr : int; len : int }

val make : Vm.Address_space.t -> addr:int -> len:int -> t

val map :
  ?state:Vm.Region.movability -> ?offset:int -> Vm.Address_space.t -> len:int -> t
(** Map a fresh region of [ceil ((offset + len) / page_size)] pages in
    [space] (in region state [state], default [Unmovable]) and return
    the buffer of [len] bytes starting [offset] (default 0) bytes into
    it. *)

val page_offset : t -> int
(** Offset of the buffer start within its first page. *)

val pages : t -> int
(** Number of pages the buffer touches. *)

val read : t -> bytes
(** Read the buffer contents through the application's mappings. *)

val write : t -> bytes -> unit
val fill_pattern : t -> seed:int -> unit
(** Fill with a deterministic pattern (for tests and examples), storing
    straight into the mapped frames. *)

val expected_pattern : len:int -> seed:int -> bytes
(** The bytes {!fill_pattern} stores in a buffer of [len] bytes: byte
    [i] is [(131 i + 89 seed + i / 4096) land 0xFF]. *)
