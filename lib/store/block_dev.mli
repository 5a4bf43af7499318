(** Simulated block device.

    One request queue feeding one disk arm: requests serialize on a
    [busy_until] clock exactly like {!Simcore.Cpu} serializes kernel
    work.  Each request is a run of whole, consecutive blocks (one block
    = one page frame).  A request that does not start at the block after
    the previous transfer pays the seek-plus-rotational fixed cost
    ({!Machine.Cost_model.Disk_seek}); every request pays the
    per-command overhead and the media transfer rate
    ({!Machine.Cost_model.Disk_read}/[Disk_write]).

    DMA discipline mirrors the network adapter: frames involved in a
    read hold an {e input} reference for the duration of the transfer
    (input-disabled pageout applies to them), frames involved in a
    write hold an {e output} reference; both drop at completion, so
    I/O-deferred deallocation covers storage DMA too.  Each in-flight
    request is registered as a {!Vm.Vm_sys.io_view}, so the
    [io-refcounts] invariant audits storage DMA alongside network DMA.
    Bytes move at completion time — reads scatter media contents into
    the frames, writes gather frame contents onto the media — so what
    lands is what the frame held when the transfer retired. *)

type t

val create : Simcore.Engine.t -> Machine.Cost_model.t -> vm:Vm.Vm_sys.t -> t
(** Media starts empty; absent blocks read as zeros. *)

val set_trace_scope : t -> Simcore.Tracer.scope -> unit
(** Install a (store-subsystem) scope: per-request [Complete] spans plus
    [disk_reads]/[disk_writes]/[disk_seeks] counters. *)

val page_size : t -> int

val submit :
  t ->
  dir:[ `Read | `Write ] ->
  block:int ->
  frames:Memory.Frame.t list ->
  on_complete:(unit -> unit) ->
  unit
(** Queue one contiguous transfer of [List.length frames] blocks
    starting at [block].  [on_complete] fires at the simulated
    completion instant, after the data motion and reference drops. *)

val flush : t -> on_complete:(unit -> unit) -> unit
(** Cache-flush barrier ({!Machine.Cost_model.Fsync_barrier}): occupies
    the device after everything already queued, completing only when
    all prior transfers have retired. *)

val reads : t -> int
(** Blocks transferred by read requests so far. *)

val writes : t -> int
(** Blocks transferred by write requests so far. *)

val seeks : t -> int
(** Requests that paid the seek cost. *)
