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
  handlers : (int, Net.Adapter.rx_result -> unit) Hashtbl.t;
  mutable align_input : bool;
  tracer : Simcore.Tracer.t;
  scope : Simcore.Tracer.scope;
  ledger : Ledger.t;
}

(* Pageout-reclaim retry: under frame pressure, ask the pageout daemon to
   evict before a path gives up.  Returns true when anything was evicted.
   Only ever runs when exhaustion actually bites, so fault-free runs never
   see its events. *)
let reclaim_retry t ~target ~why =
  let evicted = Vm.Vm_sys.run_pageout t.vm ~target in
  if Simcore.Tracer.on t.scope then
    Simcore.Tracer.instant t.scope "mem.reclaim_retry"
      ~args:
        [
          ("why", Simcore.Tracer.Str why);
          ("evicted", Simcore.Tracer.Int evicted);
        ];
  Simcore.Tracer.add_counter t.scope "reclaims";
  evicted > 0

let pool_put t frame =
  Ledger.release t.ledger frame;
  Memory.Phys_mem.block_add t.pool frame;
  Simcore.Tracer.add_counter t.scope "pool_recycles"

let pool_level t = Memory.Phys_mem.block_length t.pool
let iter_pool t f = Memory.Phys_mem.block_iter t.pool f

(* Overlay-pool take with graceful degradation: an empty pool borrows a
   frame from physical memory (it rejoins the pool at [pool_put]), frame
   exhaustion triggers a pageout-reclaim retry, and only then does the
   caller see [None] — never an exception. *)
let pool_take_opt t =
  match Memory.Phys_mem.block_take t.pool with
  | Some frame ->
    Ledger.hold t.ledger frame;
    Some frame
  | None ->
    let borrow () =
      match Memory.Phys_mem.alloc t.vm.Vm.Vm_sys.phys with
      | frame ->
        if Simcore.Tracer.on t.scope then
          Simcore.Tracer.instant t.scope "pool.borrow";
        Simcore.Tracer.add_counter t.scope "pool_borrows";
        Ledger.hold t.ledger frame;
        Some frame
      | exception Memory.Phys_mem.Out_of_frames -> None
    in
    (match borrow () with
    | Some _ as got -> got
    | None -> if reclaim_retry t ~target:8 ~why:"pool" then borrow () else None)

let alloc_sys_frames t n =
  let frames = Memory.Phys_mem.alloc_many t.vm.Vm.Vm_sys.phys n in
  Ledger.hold_all t.ledger frames;
  frames

(* Typed variant: [None] instead of [Out_of_frames], with one
   pageout-reclaim retry in between. *)
let try_alloc_sys_frames t n =
  let phys = t.vm.Vm.Vm_sys.phys in
  let attempt () =
    match Memory.Phys_mem.alloc_many phys n with
    | frames -> Some frames
    | exception Memory.Phys_mem.Out_of_frames -> None
  in
  let frames =
    if Memory.Phys_mem.free_frames phys >= n then attempt ()
    else if reclaim_retry t ~target:(max 16 n) ~why:"sys_frames" then attempt ()
    else None
  in
  match frames with
  | Some frames ->
    Ledger.hold_all t.ledger frames;
    Some frames
  | None -> None

let create ?(pool_frames = 512) ?thresholds ?tracer engine params spec ~name =
  let costs = Machine.Cost_model.create spec in
  let cpu = Simcore.Cpu.create engine in
  let vm = Vm.Vm_sys.create spec in
  let adapter =
    Net.Adapter.create engine params ~page_size:spec.Machine.Machine_spec.page_size
      ~name
  in
  let thresholds =
    match thresholds with
    | Some t -> t
    | None -> Thresholds.for_page_size spec.Machine.Machine_spec.page_size
  in
  let tracer =
    match tracer with Some t -> t | None -> Simcore.Tracer.create ()
  in
  Simcore.Tracer.set_clock tracer (fun () -> Simcore.Engine.now engine);
  let scope sub = Simcore.Tracer.scope tracer ~host:name ~sub in
  Vm.Vm_sys.set_trace_scope vm (scope Simcore.Tracer.Vm);
  Memory.Phys_mem.set_trace_scope vm.Vm.Vm_sys.phys (scope Simcore.Tracer.Mem);
  Net.Adapter.set_trace_scope adapter (scope Simcore.Tracer.Net);
  let ops = Ops.create cpu costs in
  Ops.set_trace_scope ops (scope Simcore.Tracer.Genie);
  (* One block, not [pool_frames] allocations: the pool's frames are
     born as the adapter first takes them. *)
  let pool = Memory.Phys_mem.alloc_block vm.Vm.Vm_sys.phys pool_frames in
  let t =
    {
      name;
      engine;
      spec;
      costs;
      cpu;
      vm;
      adapter;
      ops;
      thresholds;
      pool;
      handlers = Hashtbl.create 8;
      align_input = true;
      tracer;
      scope = scope Simcore.Tracer.Genie;
      ledger = Ledger.create ();
    }
  in
  Net.Adapter.set_pool_supply adapter (fun () -> pool_take_opt t);
  Net.Adapter.set_pool_return adapter (fun frame -> pool_put t frame);
  Net.Adapter.set_rx_complete adapter (fun result ->
      match Hashtbl.find_opt t.handlers result.Net.Adapter.vc with
      | Some handler -> handler result
      | None -> ());
  t

let page_size t = t.spec.Machine.Machine_spec.page_size
let new_space t = Vm.Address_space.create t.vm

let free_sys_frames t frames =
  Ledger.release_all t.ledger frames;
  List.iter (fun f -> Memory.Phys_mem.deallocate t.vm.Vm.Vm_sys.phys f) frames

let frames_to_vm t frames = Ledger.release_all t.ledger frames

let set_handler t ~vc handler = Hashtbl.replace t.handlers vc handler
let now_us t = Simcore.Sim_time.to_us (Simcore.Engine.now t.engine)
