(** Kernel bookkeeping for the invariant checker.

    The ledger shadows two things the real code keeps implicit:

    - the multiset of frames currently {e held by the kernel's I/O paths}
      — system buffers, overlay pages taken from the pool, posted header
      frames — i.e. allocated frames owned neither by a memory object nor
      by the pool queue; and
    - the in-flight data-passing operations (one {!entry} per prepared
      output or input), so state-dependent invariants (region hiding,
      TCOW protection, wiring) know which transitions are legitimately
      mid-flight.

    Maintained by {!Host}, {!Output_path} and {!Input_path}; read by
    [Check.Invariants].  It performs no allocation or accounting of its
    own and never affects simulation behaviour. *)

type dir = Output | Input

type entry = {
  entry_id : int;
  dir : dir;
  sem : Semantics.t;  (** effective semantics (after threshold conversion) *)
  space : Vm.Address_space.t;
  region : unit -> Vm.Region.t option;
      (** the region in transit, if the semantics moves one (live view —
          the input path re-homes regions mid-flight) *)
  handle : unit -> Vm.Page_ref.handle option;
      (** the page-referencing handle while it is active *)
}

type t

val create : unit -> t

val hold : t -> Memory.Frame.t -> unit
val hold_all : t -> Memory.Frame.t list -> unit

val release : t -> Memory.Frame.t -> unit
(** Drop one hold.  Tolerant: a no-op for frames that were never held
    (pool refills allocated straight into the pool, displaced region
    pages being pooled). *)

val release_all : t -> Memory.Frame.t list -> unit

val held_frames : t -> (Memory.Frame.t * int) list

val note :
  t ->
  dir:dir ->
  sem:Semantics.t ->
  space:Vm.Address_space.t ->
  region:(unit -> Vm.Region.t option) ->
  handle:(unit -> Vm.Page_ref.handle option) ->
  int
(** Record an in-flight operation; returns the id to {!retire}. *)

val retire : t -> int -> unit
val entries : t -> entry list
