(* Storage dimension: block-device timing, page-cache laws (hits,
   read-ahead, writeback, throttling, fsync, typed backpressure),
   mmap-style file regions, and the file-backed Genie I/O surface
   including the zero-copy sendfile path. *)

module As = Vm.Address_space
module Sem = Genie.Semantics
module PC = Store.Page_cache

let light = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166
let psize = 4096
let pattern ~len ~seed = Genie.Buf.expected_pattern ~len ~seed

let setup ?config ?trace () =
  let w = Genie.World.create ?trace ~spec_a:light ~spec_b:light () in
  let fio = Genie.File_io.create ?config w.Genie.World.a in
  (w, fio)

let must = function
  | Ok v -> v
  | Error `Again -> Alcotest.fail "unexpected `Again backpressure"

(* A tracer that only counts.  The block device keeps no traffic
   statistics of its own: tests read its [disk_reads], [disk_writes]
   and [disk_seeks] counters. *)
let counting_tracer () =
  let trace = Simcore.Tracer.create () in
  Simcore.Tracer.enable_counters trace;
  trace

(* A cache over a raw engine/CPU, without a Genie host — exercises the
   store library's injected-dependency seams directly.  Given [trace],
   the device counts into it under host "raw". *)
let raw_cache ?(config = PC.default_config) ?trace () =
  let engine = Simcore.Engine.create () in
  let spec = light in
  let costs = Machine.Cost_model.create spec in
  let cpu = Simcore.Cpu.create engine in
  let vm = Vm.Vm_sys.create spec in
  let phys = vm.Vm.Vm_sys.phys in
  let dev = Store.Block_dev.create engine costs ~vm in
  Option.iter
    (fun trace ->
      Store.Block_dev.set_trace_scope dev
        (Simcore.Tracer.scope trace ~host:"raw" ~sub:Simcore.Tracer.Store))
    trace;
  let charge op ~bytes =
    ignore (Simcore.Cpu.charge cpu ~cost:(Machine.Cost_model.cost costs op ~bytes))
  in
  let charging =
    {
      PC.charge;
      charge_n = (fun op ~bytes ~n -> for _ = 1 to n do charge op ~bytes done);
      charged_until =
        (fun () ->
          Simcore.Sim_time.max (Simcore.Engine.now engine)
            (Simcore.Cpu.busy_until cpu));
    }
  in
  let cache =
    PC.create ~config ~engine ~dev ~charging
      ~alloc_frame:(fun () ->
        match Memory.Phys_mem.alloc phys with
        | f -> Some f
        | exception Memory.Phys_mem.Out_of_frames -> None)
      ~free_frame:(fun f -> Memory.Phys_mem.deallocate phys f)
      ()
  in
  (engine, phys, dev, cache)

let test_block_dev_timing () =
  let trace = counting_tracer () in
  let engine, phys, dev, _ = raw_cache ~trace () in
  let f1 = Memory.Phys_mem.alloc phys and f2 = Memory.Phys_mem.alloc phys in
  let order = ref [] in
  Store.Block_dev.submit dev ~dir:`Write ~block:0 ~frames:[ f1 ]
    ~on_complete:(fun () -> order := "w0" :: !order);
  (* DMA references held for the duration of the transfer *)
  Alcotest.(check int) "output ref during write" 1 f1.Memory.Frame.output_refs;
  Store.Block_dev.submit dev ~dir:`Read ~block:7 ~frames:[ f2 ]
    ~on_complete:(fun () -> order := "r7" :: !order);
  Alcotest.(check int) "input ref during read" 1 f2.Memory.Frame.input_refs;
  Simcore.Engine.run engine;
  Alcotest.(check (list string)) "FIFO completion" [ "w0"; "r7" ]
    (List.rev !order);
  Alcotest.(check int) "refs dropped" 0
    (f1.Memory.Frame.output_refs + f2.Memory.Frame.input_refs);
  (* block 0 started at the arm position, block 7 paid the seek *)
  let disk name = Simcore.Tracer.counter trace ~host:"raw" name in
  Alcotest.(check int) "one seek" 1 (disk "disk_seeks");
  Alcotest.(check int) "one block read" 1 (disk "disk_reads");
  Alcotest.(check int) "one block written" 1 (disk "disk_writes")

let test_write_read_roundtrip () =
  let w, fio = setup () in
  let fd = Genie.File_io.open_file fio in
  let len = (3 * psize) + 123 in
  let data = pattern ~len ~seed:7 in
  let wrote = ref false in
  must
    (Genie.File_io.write fio ~fd ~off:0 ~data ~on_complete:(fun () ->
         wrote := true));
  Genie.World.run w;
  Alcotest.(check bool) "write completed" true !wrote;
  Alcotest.(check int) "size" len (Genie.File_io.size fio ~fd);
  let got = ref Bytes.empty in
  must
    (Genie.File_io.read fio ~fd ~off:0 ~len ~on_complete:(fun b -> got := b));
  Genie.World.run w;
  Alcotest.(check bool) "read back equal" true (Bytes.equal data !got);
  (* unaligned overwrite straddling a page boundary (read-modify-write
     against cached pages) *)
  let patch = pattern ~len:700 ~seed:9 in
  must
    (Genie.File_io.write fio ~fd ~off:(psize - 350) ~data:patch
       ~on_complete:(fun () -> ()));
  Genie.World.run w;
  Bytes.blit patch 0 data (psize - 350) 700;
  must
    (Genie.File_io.read fio ~fd ~off:0 ~len ~on_complete:(fun b -> got := b));
  Genie.World.run w;
  Alcotest.(check bool) "patched read equal" true (Bytes.equal data !got)

let test_cold_warm_read () =
  let trace = counting_tracer () in
  let w, fio = setup ~trace () in
  let disk name = Simcore.Tracer.counter trace ~host:"host-a" name in
  let fd = Genie.File_io.open_file fio in
  let len = 8 * psize in
  must
    (Genie.File_io.write fio ~fd ~off:0 ~data:(pattern ~len ~seed:3)
       ~on_complete:(fun () -> ()));
  let synced = ref false in
  Genie.File_io.fsync fio ~fd ~on_complete:(fun () -> synced := true);
  Genie.World.run w;
  Alcotest.(check bool) "fsync completed" true !synced;
  Alcotest.(check int) "all pages written back" 8 (disk "disk_writes");
  Alcotest.(check int) "clean after fsync" 0
    (PC.dirty_pages (Genie.File_io.cache fio));
  Alcotest.(check int) "dropped clean pages" 8 (Genie.File_io.drop_caches fio);
  (* cold: every page transfers from the device *)
  let got = ref Bytes.empty in
  must
    (Genie.File_io.read fio ~fd ~off:0 ~len ~on_complete:(fun b -> got := b));
  Genie.World.run w;
  Alcotest.(check bool) "cold read equal" true
    (Bytes.equal (pattern ~len ~seed:3) !got);
  let cold_reads = disk "disk_reads" in
  Alcotest.(check bool) "cold read hit the device" true (cold_reads >= 8);
  (* warm: no further device traffic *)
  must
    (Genie.File_io.read fio ~fd ~off:0 ~len ~on_complete:(fun b -> got := b));
  Genie.World.run w;
  Alcotest.(check int) "warm read stayed in cache" cold_reads
    (disk "disk_reads");
  Alcotest.(check bool) "warm read equal" true
    (Bytes.equal (pattern ~len ~seed:3) !got)

let test_readahead () =
  let w, fio = setup () in
  let cache = Genie.File_io.cache fio in
  let fd = Genie.File_io.open_file fio in
  let len = 16 * psize in
  must
    (Genie.File_io.write fio ~fd ~off:0 ~data:(pattern ~len ~seed:5)
       ~on_complete:(fun () -> ()));
  Genie.File_io.fsync fio ~fd ~on_complete:(fun () -> ());
  Genie.World.run w;
  ignore (Genie.File_io.drop_caches fio);
  (* two sequential page reads reach the detector's minimum run *)
  must
    (Genie.File_io.read fio ~fd ~off:0 ~len:psize ~on_complete:(fun _ -> ()));
  must
    (Genie.File_io.read fio ~fd ~off:psize ~len:psize
       ~on_complete:(fun _ -> ()));
  Genie.World.run w;
  Alcotest.(check bool) "window prefetched" true (PC.is_cached cache ~fd ~page:4);
  Alcotest.(check bool) "beyond window untouched" false
    (PC.is_cached cache ~fd ~page:14)

let test_write_throttling () =
  let config =
    {
      PC.default_config with
      PC.dirty_high = 1000;
      dirty_throttle = 4;
      writeback_interval_us = 1e7;
    }
  in
  let trace = counting_tracer () in
  let w, fio = setup ~config ~trace () in
  let fd = Genie.File_io.open_file fio in
  let completed = ref 0 in
  for p = 0 to 9 do
    must
      (Genie.File_io.write fio ~fd ~off:(p * psize)
         ~data:(pattern ~len:psize ~seed:p)
         ~on_complete:(fun () -> incr completed))
  done;
  Genie.World.run w;
  Alcotest.(check int) "all writes completed" 10 !completed;
  Alcotest.(check bool) "throttle forced writeback" true
    (Simcore.Tracer.counter trace ~host:"host-a" "disk_writes" >= 5)

let test_backpressure_again () =
  let engine, phys, _, cache =
    raw_cache ~config:{ PC.default_config with PC.max_pages = 8 } ()
  in
  let fd = PC.open_file cache in
  for p = 0 to 7 do
    ignore
      (must
         (PC.write cache ~fd ~off:(p * psize)
            ~data:(Bytes.make psize 'x')
            ~on_complete:(fun () -> ())))
  done;
  (* exhaust physical memory while every cached page is dirty *)
  let hogs = ref [] in
  (try
     while true do
       hogs := Memory.Phys_mem.alloc phys :: !hogs
     done
   with Memory.Phys_mem.Out_of_frames -> ());
  (match
     PC.write cache ~fd ~off:(8 * psize)
       ~data:(Bytes.make psize 'y')
       ~on_complete:(fun () -> ())
   with
  | Error `Again -> ()
  | Ok () -> Alcotest.fail "expected `Again under exhaustion");
  (* the rejection kicked writeback; once it drains, clean pages are
     evictable and the retry is admitted *)
  Simcore.Engine.run engine;
  let done_ = ref false in
  ignore
    (must
       (PC.write cache ~fd ~off:(8 * psize)
          ~data:(Bytes.make psize 'y')
          ~on_complete:(fun () -> done_ := true)));
  Simcore.Engine.run engine;
  Alcotest.(check bool) "retry admitted after writeback" true !done_;
  List.iter (Memory.Phys_mem.deallocate phys) !hogs

let test_store_counters () =
  let trace = Simcore.Tracer.create ~enabled:true () in
  let w, fio = setup ~trace () in
  let fd = Genie.File_io.open_file fio in
  must
    (Genie.File_io.write fio ~fd ~off:0
       ~data:(pattern ~len:(4 * psize) ~seed:1)
       ~on_complete:(fun () -> ()));
  Genie.File_io.fsync fio ~fd ~on_complete:(fun () -> ());
  Genie.World.run w;
  must
    (Genie.File_io.read fio ~fd ~off:0 ~len:(4 * psize)
       ~on_complete:(fun _ -> ()));
  Genie.World.run w;
  let c name = Simcore.Tracer.counter trace ~host:"host-a" name in
  Alcotest.(check bool) "cache_hits" true (c "cache_hits" >= 4);
  Alcotest.(check bool) "cache_misses" true (c "cache_misses" >= 4);
  Alcotest.(check bool) "writebacks" true (c "writebacks" >= 4);
  Alcotest.(check int) "fsyncs" 1 (c "fsyncs");
  Alcotest.(check bool) "disk_writes" true (c "disk_writes" >= 4)

let recv_setup w ~vc =
  let ea, eb = Genie.World.endpoint_pair w ~vc ~mode:Net.Adapter.Early_demux in
  let space = Genie.Host.new_space w.Genie.World.b in
  (ea, eb, space)

let post_input eb space ~len ~results =
  let region = As.map_region space ~npages:((len + psize - 1) / psize) in
  let rbuf =
    Genie.Buf.make space ~addr:(As.base_addr region ~page_size:psize) ~len
  in
  ignore
    (must
       (Genie.Endpoint.input eb ~sem:Sem.emulated_share
          ~spec:(Genie.Input_path.App_buffer rbuf)
          ~on_complete:(fun r -> results := r :: !results)))

let test_sendfile_equals_read_send () =
  let w, fio = setup () in
  let ea, eb, rspace = recv_setup w ~vc:1 in
  let fd = Genie.File_io.open_file fio in
  let off = psize / 2 and len = (2 * psize) + 200 in
  let file_len = 4 * psize in
  must
    (Genie.File_io.write fio ~fd ~off:0
       ~data:(pattern ~len:file_len ~seed:21)
       ~on_complete:(fun () -> ()));
  Genie.World.run w;
  let expected = Bytes.sub (pattern ~len:file_len ~seed:21) off len in
  let results = ref [] in
  (* zero-copy path *)
  post_input eb rspace ~len ~results;
  ignore (must (Genie.File_io.sendfile fio ea ~fd ~off ~len ()));
  Genie.World.run w;
  (* read+send path: copy out to an application buffer, send with copy
     semantics *)
  post_input eb rspace ~len ~results;
  must
    (Genie.File_io.read fio ~fd ~off ~len ~on_complete:(fun data ->
         let region = As.map_region rspace ~npages:1 in
         ignore region;
         let sspace = Genie.Host.new_space w.Genie.World.a in
         let sregion =
           As.map_region sspace ~npages:((len + psize - 1) / psize)
         in
         let buf =
           Genie.Buf.make sspace
             ~addr:(As.base_addr sregion ~page_size:psize)
             ~len
         in
         Genie.Buf.write buf data;
         ignore
           (must (Genie.Endpoint.output ea ~sem:Sem.copy ~buf ()))));
  Genie.World.run w;
  match List.rev !results with
  | [ r1; r2 ] ->
    let payload r =
      match r.Genie.Input_path.buf with
      | Some b -> Genie.Buf.read b
      | None -> Alcotest.fail "input delivered no buffer"
    in
    Alcotest.(check bool) "sendfile delivered intact" true
      (Genie.Input_path.ok r1);
    Alcotest.(check bool) "read+send delivered intact" true
      (Genie.Input_path.ok r2);
    Alcotest.(check bool) "sendfile bytes = file slice" true
      (Bytes.equal expected (payload r1));
    Alcotest.(check bool) "read+send bytes = sendfile bytes" true
      (Bytes.equal (payload r1) (payload r2))
  | rs -> Alcotest.failf "expected 2 deliveries, got %d" (List.length rs)

(* Host words per 16 KB file->network delivery, sendfile against
   read+send, each loop after one warmup delivery.  Sendfile hands the
   cache frames to the adapter as the transmit scatter list; read+send
   copies out to a fresh application buffer and sends it with copy
   semantics, so it must allocate more. *)
let test_sendfile_allocates_less () =
  let w, fio = setup () in
  let ea, eb, rspace = recv_setup w ~vc:1 in
  let fd = Genie.File_io.open_file fio in
  let len = 4 * psize in
  must
    (Genie.File_io.write fio ~fd ~off:0 ~data:(pattern ~len ~seed:35)
       ~on_complete:(fun () -> ()));
  Genie.World.run w;
  Genie.File_io.fsync fio ~fd ~on_complete:(fun () -> ());
  Genie.World.run w;
  let results = ref [] in
  let sendfile () =
    ignore (must (Genie.File_io.sendfile fio ea ~fd ~off:0 ~len ()) : int)
  in
  let read_send () =
    must
      (Genie.File_io.read fio ~fd ~off:0 ~len ~on_complete:(fun data ->
           let sspace = Genie.Host.new_space w.Genie.World.a in
           let sregion = As.map_region sspace ~npages:(len / psize) in
           let buf =
             Genie.Buf.make sspace ~addr:(As.base_addr sregion ~page_size:psize) ~len
           in
           Genie.Buf.write buf data;
           ignore (must (Genie.Endpoint.output ea ~sem:Sem.copy ~buf ()))))
  in
  let deliver send =
    post_input eb rspace ~len ~results;
    send ();
    Genie.World.run w
  in
  let per_op send =
    deliver send;
    let n = 8 in
    Test_util.words_allocated (fun () ->
        for _ = 1 to n do
          deliver send
        done)
    /. float_of_int n
  in
  let sf = per_op sendfile in
  let rs = per_op read_send in
  Alcotest.(check int) "every delivery arrived" 18 (List.length !results);
  if not (List.for_all Genie.Input_path.ok !results) then
    Alcotest.fail "a delivery failed";
  if sf > 4_725. then
    Alcotest.failf "sendfile allocates %.0f words per op (> 4,725)" sf;
  if rs > 12_015. then
    Alcotest.failf "read+send allocates %.0f words per op (> 12,015)" rs;
  if sf >= rs then
    Alcotest.failf "sendfile allocates %.0f words per op, read+send %.0f" sf rs

(* Flat-file model for the qcheck laws. *)
module Model = struct
  type t = { mutable data : bytes }

  let create () = { data = Bytes.empty }

  let write m ~off ~data =
    let len = Bytes.length data in
    if off + len > Bytes.length m.data then begin
      let grown = Bytes.make (off + len) '\000' in
      Bytes.blit m.data 0 grown 0 (Bytes.length m.data);
      m.data <- grown
    end;
    Bytes.blit data 0 m.data off len

  let read m ~off ~len =
    let size = Bytes.length m.data in
    let len = min len (max 0 (size - off)) in
    Bytes.sub m.data off len

  let size m = Bytes.length m.data
end

let prop_read_your_writes =
  QCheck.Test.make ~name:"cache reads match a flat-file model" ~count:20
    QCheck.(
      list_of_size
        Gen.(1 -- 25)
        (triple (int_bound ((40 * psize) - 1)) (int_bound (3 * psize)) small_int))
    (fun ops ->
      let w, fio = setup () in
      let fd = Genie.File_io.open_file fio in
      let model = Model.create () in
      let failure = ref None in
      List.iter
        (fun (off, len0, seed) ->
          let len = len0 + 1 in
          let data = pattern ~len ~seed in
          (match
             Genie.File_io.write fio ~fd ~off ~data ~on_complete:(fun () -> ())
           with
          | Ok () -> Model.write model ~off ~data
          | Error `Again -> failure := Some "write rejected");
          Genie.World.run w;
          (match seed mod 5 with
          | 0 -> Genie.File_io.fsync fio ~fd ~on_complete:(fun () -> ())
          | 1 -> ignore (Genie.File_io.drop_caches fio)
          | _ -> ());
          Genie.World.run w;
          if seed mod 3 = 0 then begin
            let roff = (off + len) / 2 in
            let rlen = len in
            (match
               Genie.File_io.read fio ~fd ~off:roff ~len:rlen
                 ~on_complete:(fun b ->
                   if not (Bytes.equal b (Model.read model ~off:roff ~len:rlen))
                   then failure := Some "mid-sequence read mismatch")
             with
            | Ok () -> ()
            | Error `Again -> failure := Some "read rejected");
            Genie.World.run w
          end)
        ops;
      let size = Genie.File_io.size fio ~fd in
      if size <> Model.size model then
        failure := Some "size diverged from model";
      (match
         Genie.File_io.read fio ~fd ~off:0 ~len:size ~on_complete:(fun b ->
             if not (Bytes.equal b (Model.read model ~off:0 ~len:size)) then
               failure := Some "final read mismatch")
       with
      | Ok () -> ()
      | Error `Again -> failure := Some "final read rejected");
      Genie.World.run w;
      match !failure with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let prop_writeback_preserves_bytes =
  QCheck.Test.make
    ~name:"writeback preserves bytes under eviction/fsync interleavings"
    ~count:20
    QCheck.(list_of_size Gen.(1 -- 30) (pair (int_bound 39) small_int))
    (fun ops ->
      (* small cache so eviction happens; ops issue back-to-back with no
         draining in between, so writebacks, RMW fills, fsyncs and
         drop_caches genuinely interleave inside one engine run *)
      let engine, _, _, cache =
        raw_cache ~config:{ PC.default_config with PC.max_pages = 12 } ()
      in
      let fd = PC.open_file cache in
      let model = Model.create () in
      let failure = ref None in
      List.iter
        (fun (page, seed) ->
          let off = (page * psize) + (seed mod 97) in
          let len = 1 + ((seed * 7) mod (2 * psize)) in
          let data = pattern ~len ~seed in
          (match PC.write cache ~fd ~off ~data ~on_complete:(fun () -> ()) with
          | Ok () -> Model.write model ~off ~data
          | Error `Again -> failure := Some "write rejected");
          match seed mod 4 with
          | 0 -> PC.writeback_now cache
          | 1 -> PC.fsync cache ~fd ~on_complete:(fun () -> ())
          | 2 -> ignore (PC.drop_caches cache)
          | _ -> ())
        ops;
      PC.fsync cache ~fd ~on_complete:(fun () -> ());
      Simcore.Engine.run engine;
      if PC.dirty_pages cache <> 0 then failure := Some "dirty after fsync";
      (* force a cold read so the bytes come back off the media *)
      ignore (PC.drop_caches cache);
      let size = PC.file_size cache fd in
      (match
         PC.read cache ~fd ~off:0 ~len:size ~on_complete:(fun desc ->
             let b = Memory.Io_desc.gather desc ~off:0 ~len:size in
             if not (Bytes.equal b (Model.read model ~off:0 ~len:size)) then
               failure := Some "media bytes diverged from model")
       with
      | Ok () -> ()
      | Error `Again -> failure := Some "cold read rejected");
      Simcore.Engine.run engine;
      match !failure with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let suite =
  [
    Alcotest.test_case "block device timing" `Quick test_block_dev_timing;
    Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "cold vs warm read" `Quick test_cold_warm_read;
    Alcotest.test_case "sequential readahead" `Quick test_readahead;
    Alcotest.test_case "write throttling" `Quick test_write_throttling;
    Alcotest.test_case "backpressure `Again" `Quick test_backpressure_again;
    Alcotest.test_case "store trace counters" `Quick test_store_counters;
    Alcotest.test_case "sendfile = read+send bytes" `Quick
      test_sendfile_equals_read_send;
    QCheck_alcotest.to_alcotest prop_read_your_writes;
    QCheck_alcotest.to_alcotest prop_writeback_preserves_bytes;
    Alcotest.test_case "sendfile allocates less than read+send" `Quick
      test_sendfile_allocates_less;
  ]
