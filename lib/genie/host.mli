(** A simulated host: machine spec, CPU, VM system, network adapter, and
    the I/O module's private pool of overlay pages.

    The host also owns the Genie instance's plumbing between the adapter
    receive path and per-VC endpoints. *)

type t = {
  name : string;
  engine : Simcore.Engine.t;
  spec : Machine.Machine_spec.t;
  costs : Machine.Cost_model.t;
  cpu : Simcore.Cpu.t;
  vm : Vm.Vm_sys.t;
  adapter : Net.Adapter.t;
  ops : Ops.t;
  thresholds : Thresholds.t;
  pool : Memory.Phys_mem.block;
      (** the overlay pool, FIFO; read it through {!pool_level} and
          {!iter_pool} *)
  handlers : (int, Net.Adapter.rx_result -> unit) Hashtbl.t;
  mutable align_input : bool;
      (** system input alignment (Section 5.2); disable for the ablation
          benchmark — system buffers are then allocated page-aligned
          regardless of the application buffer's offset *)
  tracer : Simcore.Tracer.t;
      (** typed event trace of the kernel paths (disabled by default;
          enable with [Simcore.Tracer.enable]).  May be shared with the
          other host of a {!World}. *)
  scope : Simcore.Tracer.scope;
      (** this host's Genie-subsystem scope on [tracer]; the I/O paths
          emit their stage spans through it *)
  ledger : Ledger.t;
      (** kernel-held frames and in-flight operations, for the invariant
          checker (see {!Ledger}) *)
}

val create :
  ?pool_frames:int ->
  ?thresholds:Thresholds.t ->
  ?tracer:Simcore.Tracer.t ->
  Simcore.Engine.t ->
  Net.Net_params.t ->
  Machine.Machine_spec.t ->
  name:string ->
  t
(** [pool_frames] (default 512) sizes the I/O module's overlay pool,
    handed out as one {!Memory.Phys_mem.block}.
    [tracer] (default: a fresh disabled tracer) receives the typed
    events of every subsystem on this host; its clock is pointed at the
    engine, and per-subsystem scopes are installed into the VM system,
    physical memory, the adapter and the charging context. *)

val page_size : t -> int
val new_space : t -> Vm.Address_space.t

val pool_take_opt : t -> Memory.Frame.t option
(** Take an overlay frame.  An empty pool borrows a frame from physical
    memory (the borrow rejoins the pool at {!pool_put}); frame exhaustion
    triggers one pageout-reclaim retry; only then is [None] returned.
    Never raises — overlay-pool exhaustion is a typed condition. *)

val pool_put : t -> Memory.Frame.t -> unit
val pool_level : t -> int

val iter_pool : t -> (Memory.Frame.t -> unit) -> unit
(** Every frame in the overlay pool, in take order (for the invariant
    checker). *)

val alloc_sys_frames : t -> int -> Memory.Frame.t list
(** Kernel system-buffer pages (not pageable, not pooled).
    @raise Memory.Phys_mem.Out_of_frames under exhaustion; hot paths use
    {!try_alloc_sys_frames} instead. *)

val try_alloc_sys_frames : t -> int -> Memory.Frame.t list option
(** Typed variant of {!alloc_sys_frames}: [None] instead of raising, with
    one pageout-reclaim retry (traced as [mem.reclaim_retry]) before
    giving up. *)

val reclaim_retry : t -> target:int -> why:string -> bool
(** Run the pageout daemon for up to [target] evictions because [why] hit
    frame pressure; traces [mem.reclaim_retry] and bumps the [reclaims]
    counter.  True when anything was evicted. *)

val free_sys_frames : t -> Memory.Frame.t list -> unit

val frames_to_vm : t -> Memory.Frame.t list -> unit
(** Account for kernel frames whose ownership just transferred to a
    memory object ([insert_page] / [swap_into_region]) rather than being
    deallocated: drops the ledger holds without touching the frames. *)

val set_handler : t -> vc:int -> (Net.Adapter.rx_result -> unit) -> unit

val now_us : t -> float
