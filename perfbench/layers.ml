(* Per-layer probes of the traced run.

   Each probe times, from the benchmark's own code, calls into one
   layer's public functions, with inputs drawn from the workload being
   traced: the host spec it builds, its PDU payload lengths and its
   simulated spacing between PDUs.  Every timed loop runs under a child
   span of the recorder, so the written-out spans carry the numbers the
   metrics are computed from. *)

type profile = {
  spec : Machine.Machine_spec.t;  (** host spec the workload builds *)
  pool_frames : int option;  (** overlay pool size, when not the default *)
  lens : int list;  (** distinct PDU payload lengths, at most four *)
  spacing_ns : int;  (** simulated time between PDUs *)
}

type costs = {
  crc_ns_per_byte : float;
  aal5_ns_per_pdu : float;
  aal5_words_per_pdu : float;
  world_create_ms : float;
  world_create_words : float;
  world_create_gc_ms : float;  (** collector pauses inside the creation *)
  frame_cycle_ns : float;
  engine_ns_per_event : float;
  tracer_ns_per_event : float;
  datagram_us : (Genie.Semantics.t * float) list;
  output_us : float;
  input_us : float;
  flow_table_ns_per_cycle : float;
  map_remove_us : float;
  cow_break_us : float;
  wire_unwire_us : float;
  check_us : (string * float) list;  (** per [Check.Invariants.all] entry *)
  check_world_us : float;
  check_violations : int;
  store_read_us : float;
  store_write_us : float;
  store_fsync_us : float;
  summary_add_ns : float;
}

let words_now () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Run [f] under a child span covering [calls] layer calls; elapsed ns. *)
let timed spans ~calls name f =
  let t0 = Span.now_ns () in
  Span.with_span spans ~calls name f;
  float_of_int (Span.now_ns () - t0)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let pattern len = Bytes.init len (fun i -> Char.chr (((i * 131) + len) land 0xff))
let sum = List.fold_left ( + ) 0

(* {1 net} *)

let crc spans p =
  let bufs = List.map pattern p.lens in
  let bytes = sum (List.map Bytes.length bufs) in
  let reps = max 1 (4_000_000 / bytes) in
  let ns =
    timed spans ~calls:(reps * List.length bufs) "Net.Crc32.update" (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun b ->
              ignore
                (Sys.opaque_identity
                   (Net.Crc32.update Net.Crc32.init b ~off:0
                      ~len:(Bytes.length b))))
            bufs
        done)
  in
  ns /. float_of_int (reps * bytes)

let aal5 spans p =
  let bufs = List.map pattern p.lens in
  let reps = max 1 (1_000_000 / sum (List.map Bytes.length bufs)) in
  let pdus = reps * List.length bufs in
  let w0 = words_now () in
  let ns =
    timed spans ~calls:pdus "Net.Aal5.encode_iov+decode_iov" (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun b ->
              match
                Net.Aal5.decode_iov (Net.Aal5.encode_iov (Memory.Iovec.of_bytes b))
              with
              | Ok _ -> ()
              | Error _ -> failwith "perfbench: AAL5 round trip failed")
            bufs
        done)
  in
  (ns /. float_of_int pdus, (words_now () -. w0) /. float_of_int pdus)

(* {1 memory} *)

let create_world p =
  Genie.World.create ?pool_frames:p.pool_frames ~spec_a:p.spec ~spec_b:p.spec ()

(* Median time, words and collector pause of one creation.  Creation
   allocates the hosts' frames, so part of its time is GC pauses, which
   the memory share leaves to the gc layer. *)
let world spans ~gc_ns p =
  let runs =
    List.init 5 (fun _ ->
        let w0 = words_now () and g0 = gc_ns () in
        let ns =
          timed spans ~calls:1 "Genie.World.create" (fun () ->
              ignore (Sys.opaque_identity (create_world p)))
        in
        (ns, words_now () -. w0, float_of_int (gc_ns () - g0)))
  in
  let med f = median (List.map f runs) in
  ( med (fun (ns, _, _) -> ns) /. 1e6,
    med (fun (_, w, _) -> w),
    med (fun (_, _, g) -> g) /. 1e6 )

let frames spans p =
  let pm = Memory.Phys_mem.create p.spec in
  let n = 2 * Memory.Phys_mem.total_frames pm in
  timed spans ~calls:n "Memory.Phys_mem.alloc_zeroed+deallocate" (fun () ->
      for _ = 1 to n do
        Memory.Phys_mem.deallocate pm (Memory.Phys_mem.alloc_zeroed pm)
      done)
  /. float_of_int n

(* {1 simcore} *)

(* 64 concurrent activities, each stepping once per PDU spacing,
   staggered across it: the pending set spans one spacing window. *)
let engine spans p =
  let e = Simcore.Engine.create () in
  let n = 200_000 and chains = 64 in
  let spacing = max chains p.spacing_ns in
  let scheduled = ref 0 in
  let rec event () =
    if !scheduled < n then begin
      incr scheduled;
      Simcore.Engine.schedule e ~delay:spacing event
    end
  in
  timed spans ~calls:n "Simcore.Engine.schedule+run" (fun () ->
      for k = 1 to chains do
        incr scheduled;
        Simcore.Engine.schedule e ~delay:(k * spacing / chains) event
      done;
      Simcore.Engine.run e)
  /. float_of_int n

let tracer spans =
  let tr = Simcore.Tracer.create ~enabled:true () in
  let sc = Simcore.Tracer.scope tr ~host:"perfbench" ~sub:Simcore.Tracer.Genie in
  let n = 100_000 in
  timed spans ~calls:(2 * n) "Simcore.Tracer.instant+add_counter" (fun () ->
      for _ = 1 to n do
        Simcore.Tracer.instant sc "probe";
        Simcore.Tracer.add_counter sc "probe_count"
      done)
  /. float_of_int (2 * n)

(* {1 genie} *)

type side = {
  ep : Genie.Endpoint.t;
  mutable send : Genie.Buf.t;
  recv : unit -> Genie.Input_path.spec;
}

let side (host : Genie.Host.t) ep ~sem ~len =
  let space = Genie.Host.new_space host in
  let psize = Genie.Host.page_size host in
  let npages = (len + psize - 1) / psize in
  let buf ?state () =
    let r = Vm.Address_space.map_region ?state space ~npages in
    Genie.Buf.make space ~addr:(Vm.Address_space.base_addr r ~page_size:psize) ~len
  in
  if Genie.Semantics.system_allocated sem then
    {
      ep;
      send = buf ~state:Vm.Region.Moved_in ();
      recv = (fun () -> Genie.Input_path.Sys_alloc { space; len });
    }
  else
    let recv_buf = buf () in
    { ep; send = buf (); recv = (fun () -> Genie.Input_path.App_buffer recv_buf) }

(* One datagram from [src] to [dst]: post the input, send, drain the
   engine.  System-allocated semantics send next from the region they
   received, as the latency probe does.  Returns the input, output and
   whole-datagram host time in ns. *)
let datagram w ~sem ~src ~dst =
  let got = ref None in
  let t0 = Span.now_ns () in
  (match
     Genie.Endpoint.input dst.ep ~sem ~spec:(dst.recv ())
       ~on_complete:(fun r -> got := Some r)
   with
  | Ok _ -> ()
  | Error _ -> failwith "perfbench: datagram input refused");
  let t1 = Span.now_ns () in
  (match Genie.Endpoint.output src.ep ~sem ~buf:src.send () with
  | Ok _ -> ()
  | Error _ -> failwith "perfbench: datagram output refused");
  let t2 = Span.now_ns () in
  Genie.World.run w;
  let t3 = Span.now_ns () in
  (match !got with
  | Some r when Genie.Input_path.ok r ->
    if Genie.Semantics.system_allocated sem then
      dst.send <-
        (match r.Genie.Input_path.buf with
        | Some b -> b
        | None -> failwith "perfbench: no system buffer delivered")
  | _ -> failwith "perfbench: datagram not delivered");
  (t1 - t0, t2 - t1, t3 - t0)

let slug s = String.map (fun c -> if c = ' ' then '_' else c) s

(* Ping-pong rounds on a world built before timing starts. *)
let datagrams spans p =
  let rounds = 8 in
  let per_sem =
    List.map
      (fun sem ->
        List.fold_left
          (fun (i, o, t, n) len ->
            let w = create_world p in
            let ea, eb =
              Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux
            in
            let a = side w.Genie.World.a ea ~sem ~len
            and b = side w.Genie.World.b eb ~sem ~len in
            Genie.Buf.fill_pattern a.send ~seed:len;
            let i = ref i and o = ref o and t = ref t in
            Span.with_span spans ~calls:rounds
              ("Genie.Endpoint.input+output+World.run " ^ slug (Genie.Semantics.name sem))
              (fun () ->
                for k = 0 to rounds - 1 do
                  let src, dst = if k land 1 = 0 then (a, b) else (b, a) in
                  let di, d_o, dt = datagram w ~sem ~src ~dst in
                  i := !i + di;
                  o := !o + d_o;
                  t := !t + dt
                done);
            (!i, !o, !t, n + rounds))
          (0, 0, 0, 0) p.lens
        |> fun (i, o, t, n) -> (sem, i, o, t, n))
      Genie.Semantics.all
  in
  let total f = sum (List.map f per_sem) in
  let n = float_of_int (total (fun (_, _, _, _, n) -> n)) in
  ( List.map
      (fun (sem, _, _, t, n) -> (sem, float_of_int t /. float_of_int n /. 1e3))
      per_sem,
    float_of_int (total (fun (_, _, o, _, _) -> o)) /. n /. 1e3,
    float_of_int (total (fun (_, i, _, _, _) -> i)) /. n /. 1e3 )

(* A circuit pool's worth of live flows, then alloc/free churn. *)
let flow_table spans =
  let t = Genie.Flow_table.create ~initial:32 ~dummy:(-1) () in
  for i = 1 to 31 do
    ignore (Genie.Flow_table.alloc t i : Genie.Flow_table.handle)
  done;
  let n = 1_000_000 in
  timed spans ~calls:n "Genie.Flow_table.alloc+free" (fun () ->
      for i = 1 to n do
        ignore (Genie.Flow_table.free t (Genie.Flow_table.alloc t i) : bool)
      done)
  /. float_of_int n

(* {1 vm} *)

let vm spans p =
  let w = create_world p in
  let host = w.Genie.World.a in
  let space = Genie.Host.new_space host in
  let psize = Genie.Host.page_size host in
  let npages = List.map (fun len -> max 1 ((len + psize - 1) / psize)) p.lens in
  let reps = 32 in
  let calls = reps * List.length npages in
  let map_remove =
    timed spans ~calls "Vm.Address_space.map_region+remove_region" (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun npages ->
              Vm.Address_space.remove_region space
                (Vm.Address_space.map_region space ~npages))
            npages
        done)
  in
  let cow = ref 0. in
  List.iter
    (fun npages ->
      let data = Bytes.make (npages * psize) 'x' in
      for _ = 1 to reps do
        let parent = Genie.Host.new_space host in
        let r = Vm.Address_space.map_region parent ~npages in
        let child = ref parent in
        cow :=
          !cow
          +. timed spans ~calls:1 "Vm.Address_space.clone_cow+write" (fun () ->
                 child := Vm.Address_space.clone_cow parent;
                 Vm.Address_space.write !child
                   ~addr:(Vm.Address_space.base_addr r ~page_size:psize)
                   data);
        Vm.Address_space.destroy !child;
        Vm.Address_space.destroy parent
      done)
    npages;
  let regions = List.map (fun npages -> Vm.Address_space.map_region space ~npages) npages in
  let wire =
    timed spans ~calls "Vm.Address_space.wire+unwire" (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun r ->
              Vm.Address_space.wire space r;
              Vm.Address_space.unwire space r)
            regions
        done)
  in
  let per x = x /. float_of_int calls /. 1e3 in
  (per map_remove, per !cow, per wire)

(* {1 store} *)

(* The fuzzer's storage regime: a deliberately small cache with a fast
   flusher (mirrors [Check.Fuzzer]'s internal cache configuration). *)
let store_config =
  {
    Store.Page_cache.default_config with
    Store.Page_cache.max_pages = 48;
    writeback_interval_us = 2_000.;
    dirty_high = 12;
    dirty_throttle = 18;
  }

let store spans p =
  let w = create_world p in
  let fio = Genie.File_io.create ~config:store_config w.Genie.World.a in
  let fd = Genie.File_io.open_file fio in
  let expect = function
    | Ok () -> ()
    | Error `Again -> failwith "perfbench: store operation refused"
  in
  let reps = 16 in
  let data = List.map pattern p.lens in
  let calls = reps * List.length data in
  let run () = Genie.World.run w in
  let off = ref 0 in
  let write_ns =
    timed spans ~calls "Genie.File_io.write" (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun d ->
              expect
                (Genie.File_io.write fio ~fd ~off:!off ~data:d
                   ~on_complete:ignore);
              run ();
              off := !off + Bytes.length d)
            data
        done)
  in
  let size = Genie.File_io.size fio ~fd in
  let pos = ref 0 in
  let read_ns =
    timed spans ~calls "Genie.File_io.read" (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun len ->
              expect
                (Genie.File_io.read fio ~fd ~off:!pos ~len ~on_complete:ignore);
              run ();
              pos := (!pos + (7 * len) + 4096) mod max 1 (size - len))
            p.lens
        done)
  in
  let small = pattern 512 in
  let fsync_ns = ref 0. in
  for k = 1 to reps do
    expect
      (Genie.File_io.write fio ~fd ~off:(k * 4096 mod size) ~data:small
         ~on_complete:ignore);
    run ();
    fsync_ns :=
      !fsync_ns
      +. timed spans ~calls:1 "Genie.File_io.fsync" (fun () ->
             Genie.File_io.fsync fio ~fd ~on_complete:ignore;
             run ())
  done;
  let per x n = x /. float_of_int n /. 1e3 in
  (per read_ns calls, per write_ns calls, per !fsync_ns reps)

(* {1 check} *)

(* The predicates scan a fuzzer-sized world (32 MB hosts, the fuzzer's
   pool) left quiescent after one datagram per semantics at the
   workload's lengths. *)
let check spans p =
  let fz = Check.Fuzzer.default_config in
  let spec =
    { Machine.Machine_spec.micron_p166 with memory_mb = fz.Check.Fuzzer.memory_mb }
  in
  let w =
    Genie.World.create ~pool_frames:fz.Check.Fuzzer.pool_frames ~spec_a:spec
      ~spec_b:spec ()
  in
  let lens = Array.of_list p.lens in
  List.iteri
    (fun i sem ->
      let len = lens.(i mod Array.length lens) in
      let ea, eb =
        Genie.World.endpoint_pair w ~vc:(i + 1) ~mode:Net.Adapter.Early_demux
      in
      let a = side w.Genie.World.a ea ~sem ~len
      and b = side w.Genie.World.b eb ~sem ~len in
      ignore (datagram w ~sem ~src:a ~dst:b : int * int * int))
    Genie.Semantics.all;
  let hosts = Genie.World.hosts w in
  let reps = 10 in
  let check_us =
    List.map
      (fun (name, pred) ->
        let ns =
          timed spans ~calls:(reps * List.length hosts)
            ("Check.Invariants." ^ name) (fun () ->
              for _ = 1 to reps do
                List.iter (fun h -> ignore (Sys.opaque_identity (pred h))) hosts
              done)
        in
        (name, ns /. float_of_int (reps * List.length hosts) /. 1e3))
      Check.Invariants.all
  in
  let world_ns =
    timed spans ~calls:reps "Check.Invariants.check_world" (fun () ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (Check.Invariants.check_world hosts))
        done)
  in
  ( check_us,
    world_ns /. float_of_int reps /. 1e3,
    List.length (Check.Invariants.check_world hosts) )

(* {1 stats} *)

(* Sojourn-like samples, log-uniform over 10 us .. 1 s. *)
let summary spans =
  let rng = Simcore.Rng.create ~seed:7 in
  let samples =
    Array.init 4096 (fun _ ->
        exp (Simcore.Rng.range_float rng ~lo:(log 10.) ~hi:(log 1e6)))
  in
  let s = Stats.Streaming_summary.create () in
  let n = 1_000_000 in
  timed spans ~calls:n "Stats.Streaming_summary.add" (fun () ->
      for i = 0 to n - 1 do
        Stats.Streaming_summary.add s samples.(i land 4095)
      done)
  /. float_of_int n

let measure spans ~gc_ns p =
  let crc_ns_per_byte = crc spans p in
  let aal5_ns_per_pdu, aal5_words_per_pdu = aal5 spans p in
  let world_create_ms, world_create_words, world_create_gc_ms =
    world spans ~gc_ns p
  in
  let frame_cycle_ns = frames spans p in
  let engine_ns_per_event = engine spans p in
  let tracer_ns_per_event = tracer spans in
  let datagram_us, output_us, input_us = datagrams spans p in
  let flow_table_ns_per_cycle = flow_table spans in
  let map_remove_us, cow_break_us, wire_unwire_us = vm spans p in
  let check_us, check_world_us, check_violations = check spans p in
  let store_read_us, store_write_us, store_fsync_us = store spans p in
  let summary_add_ns = summary spans in
  {
    crc_ns_per_byte;
    aal5_ns_per_pdu;
    aal5_words_per_pdu;
    world_create_ms;
    world_create_words;
    world_create_gc_ms;
    frame_cycle_ns;
    engine_ns_per_event;
    tracer_ns_per_event;
    datagram_us;
    output_us;
    input_us;
    flow_table_ns_per_cycle;
    map_remove_us;
    cow_break_us;
    wire_unwire_us;
    check_us;
    check_world_us;
    check_violations;
    store_read_us;
    store_write_us;
    store_fsync_us;
    summary_add_ns;
  }
