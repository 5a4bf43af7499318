(* Storage dimension: the simulated page cache and block device through
   the file-backed Genie I/O surface.

   Four sub-benchmarks, each on a fresh two-host world:

   - cold vs warm sequential read: device transfers plus read-ahead
     against pure cache hits;
   - cached vs throttled writes: one buffered write completing at CPU
     speed against a sustained writer queued behind writeback (the
     paper's CAWL split between memory-bandwidth-dominated and
     media-bandwidth-dominated buffered I/O);
   - fsync: the full dirty-writeback-plus-barrier stall against the
     barrier alone on a clean file;
   - sendfile vs read+send: zero-copy file-to-network page referencing
     against copyout-then-copy-semantics output, same delivered bytes.

   Every metric is a simulated time or a tracer counter, so all are
   deterministic and gated strictly.  The host-allocation side of the
   sendfile claim is a tier-1 pin (test/test_store.ml). *)

module R = Stats.Bench_result

let light = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166
let psize = 4096
let pattern ~len ~seed = Genie.Buf.expected_pattern ~len ~seed

let fresh ?config () =
  let trace = Simcore.Tracer.create ~enabled:true () in
  let w = Genie.World.create ~trace ~spec_a:light ~spec_b:light () in
  let fio = Genie.File_io.create ?config w.Genie.World.a in
  (w, fio, trace)

let must = function
  | Ok v -> v
  | Error `Again -> failwith "storage bench: unexpected `Again backpressure"

let counter trace name = Simcore.Tracer.counter trace ~host:"host-a" name
let now_us w = Genie.Host.now_us w.Genie.World.a

(* {1 Cold vs warm sequential read} *)

let file_pages = 64
let file_len = file_pages * psize

(* Chunked sequential read of the whole file — small enough demands
   that the cache's sequential-run detector can run ahead of them. *)
let read_all w fio ~fd =
  let chunk = 4 * psize in
  let t0 = now_us w in
  let done_at = ref t0 in
  for i = 0 to (file_len / chunk) - 1 do
    must
      (Genie.File_io.read fio ~fd ~off:(i * chunk) ~len:chunk
         ~on_complete:(fun data ->
           assert (Bytes.length data = chunk);
           done_at := now_us w));
    Genie.World.run w
  done;
  !done_at -. t0

let bench_reads c t =
  let w, fio, trace = fresh () in
  let fd = Genie.File_io.open_file fio in
  must
    (Genie.File_io.write fio ~fd ~off:0
       ~data:(pattern ~len:file_len ~seed:31)
       ~on_complete:(fun () -> ()));
  Genie.World.run w;
  Genie.File_io.fsync fio ~fd ~on_complete:(fun () -> ());
  Genie.World.run w;
  ignore (Genie.File_io.drop_caches fio : int);
  let dr0 = counter trace "disk_reads" in
  let cold_us = read_all w fio ~fd in
  let cold_disk_reads = counter trace "disk_reads" - dr0 in
  let readaheads = counter trace "readaheads" in
  let warm_us = read_all w fio ~fd in
  let warm_disk_reads = counter trace "disk_reads" - dr0 - cold_disk_reads in
  R.scalar c ~name:"storage.read.cold_us" ~unit_:"us" ~better:R.Lower cold_us;
  R.scalar c ~name:"storage.read.warm_us" ~unit_:"us" ~better:R.Lower warm_us;
  R.scalar c ~name:"storage.read.cold_over_warm" ~unit_:"x" ~better:R.Neutral
    (cold_us /. warm_us);
  R.scalar c ~name:"storage.read.cold_disk_reads" ~unit_:"blocks"
    ~better:R.Neutral (float_of_int cold_disk_reads);
  R.scalar c ~name:"storage.read.warm_disk_reads" ~unit_:"blocks"
    ~better:R.Lower (float_of_int warm_disk_reads);
  R.scalar c ~name:"storage.read.readaheads" ~unit_:"pages" ~better:R.Neutral
    (float_of_int readaheads);
  Stats.Text_table.add_row t
    [
      "sequential read 256KB";
      Printf.sprintf "cold %.0f us" cold_us;
      Printf.sprintf "warm %.0f us" warm_us;
      Printf.sprintf "%.1fx" (cold_us /. warm_us);
    ]

(* {1 Cached vs throttled writes} *)

let bench_writes c t =
  (* cached regime: one 32 KB write against relaxed thresholds completes
     at CPU (copyin) speed *)
  let roomy =
    {
      Store.Page_cache.default_config with
      Store.Page_cache.dirty_high = 1000;
      dirty_throttle = 1000;
      writeback_interval_us = 1_000_000.;
    }
  in
  let w, fio, _ = fresh ~config:roomy () in
  let fd = Genie.File_io.open_file fio in
  let cached_len = 8 * psize in
  let t0 = now_us w in
  let done_at = ref t0 in
  must
    (Genie.File_io.write fio ~fd ~off:0
       ~data:(pattern ~len:cached_len ~seed:32)
       ~on_complete:(fun () -> done_at := now_us w));
  Genie.World.run w;
  let cached_us = !done_at -. t0 in
  let cached_mbps = float_of_int cached_len *. 8. /. cached_us in
  (* throttled regime: a sustained writer against a tight dirty budget
     queues its completions behind writeback progress *)
  let tight =
    {
      Store.Page_cache.default_config with
      Store.Page_cache.max_pages = 64;
      dirty_high = 8;
      dirty_throttle = 8;
    }
  in
  let w, fio, trace = fresh ~config:tight () in
  let fd = Genie.File_io.open_file fio in
  let nwrites = 32 in
  let t0 = now_us w in
  let done_at = ref t0 in
  for i = 0 to nwrites - 1 do
    must
      (Genie.File_io.write fio ~fd ~off:(i * psize)
         ~data:(pattern ~len:psize ~seed:(33 + i))
         ~on_complete:(fun () -> done_at := now_us w))
  done;
  Genie.World.run w;
  let throttled_us = !done_at -. t0 in
  let throttled_mbps = float_of_int (nwrites * psize) *. 8. /. throttled_us in
  let wb_throttles = counter trace "wb_throttles" in
  R.scalar c ~name:"storage.write.cached_us" ~unit_:"us" ~better:R.Lower
    cached_us;
  R.scalar c ~name:"storage.write.cached_mbps" ~unit_:"Mbps" ~better:R.Higher
    cached_mbps;
  R.scalar c ~name:"storage.write.throttled_us" ~unit_:"us" ~better:R.Lower
    throttled_us;
  R.scalar c ~name:"storage.write.throttled_mbps" ~unit_:"Mbps"
    ~better:R.Higher throttled_mbps;
  R.scalar c ~name:"storage.write.throttle_events" ~unit_:"ops"
    ~better:R.Neutral (float_of_int wb_throttles);
  Stats.Text_table.add_row t
    [
      "buffered write";
      Printf.sprintf "throttled %.0f Mbps" throttled_mbps;
      Printf.sprintf "cached %.0f Mbps" cached_mbps;
      Printf.sprintf "%.1fx" (cached_mbps /. throttled_mbps);
    ]

(* {1 Fsync stall} *)

let bench_fsync c t =
  let w, fio, trace = fresh () in
  let fd = Genie.File_io.open_file fio in
  let dirty_pages = 16 in
  must
    (Genie.File_io.write fio ~fd ~off:0
       ~data:(pattern ~len:(dirty_pages * psize) ~seed:34)
       ~on_complete:(fun () -> ()));
  (* drain the write completion but stop before the interval flusher,
     so the pages are still dirty when fsync stalls on them *)
  Genie.World.run_for w (Simcore.Sim_time.of_us 2_000.);
  let t0 = now_us w in
  let done_at = ref t0 in
  Genie.File_io.fsync fio ~fd ~on_complete:(fun () -> done_at := now_us w);
  Genie.World.run w;
  let dirty_us = !done_at -. t0 in
  let flushed = counter trace "disk_writes" in
  let t0 = now_us w in
  let done_at = ref t0 in
  Genie.File_io.fsync fio ~fd ~on_complete:(fun () -> done_at := now_us w);
  Genie.World.run w;
  let clean_us = !done_at -. t0 in
  R.scalar c ~name:"storage.fsync.dirty16_us" ~unit_:"us" ~better:R.Lower
    dirty_us;
  R.scalar c ~name:"storage.fsync.clean_us" ~unit_:"us" ~better:R.Lower
    clean_us;
  R.scalar c ~name:"storage.fsync.flushed_blocks" ~unit_:"blocks"
    ~better:R.Neutral (float_of_int flushed);
  Stats.Text_table.add_row t
    [
      "fsync";
      Printf.sprintf "16 dirty pages %.0f us" dirty_us;
      Printf.sprintf "clean %.0f us" clean_us;
      Printf.sprintf "%.1fx" (dirty_us /. clean_us);
    ]

(* {1 Sendfile vs read+send} *)

let iters = 8
let xfer_len = 4 * psize

(* Post one application-buffer input on the receiving endpoint and
   count its delivery. *)
let post_input w eb ~delivered =
  let buf = Genie.Buf.map (Genie.Host.new_space w.Genie.World.b) ~len:xfer_len in
  ignore
    (must
       (Genie.Endpoint.input eb ~sem:Genie.Semantics.emulated_share
          ~spec:(Genie.Input_path.App_buffer buf)
          ~on_complete:(fun r ->
            assert (Genie.Input_path.ok r);
            incr delivered)))

let bench_sendfile c t =
  let w, fio, trace = fresh () in
  let ea, eb =
    Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux
  in
  let fd = Genie.File_io.open_file fio in
  must
    (Genie.File_io.write fio ~fd ~off:0
       ~data:(pattern ~len:(2 * xfer_len) ~seed:35)
       ~on_complete:(fun () -> ()));
  Genie.World.run w;
  Genie.File_io.fsync fio ~fd ~on_complete:(fun () -> ());
  Genie.World.run w;
  let delivered = ref 0 in
  let style name f =
    let copies0 = counter trace "copies" in
    let copied0 = counter trace "copied_bytes" in
    let base = !delivered in
    let t0 = now_us w in
    for _ = 1 to iters do
      post_input w eb ~delivered;
      f ();
      Genie.World.run w
    done;
    let elapsed = now_us w -. t0 in
    assert (!delivered - base = iters);
    let n = float_of_int iters in
    let copies = float_of_int (counter trace "copies" - copies0) /. n in
    let copied =
      float_of_int (counter trace "copied_bytes" - copied0) /. n
    in
    R.scalar c
      ~name:(Printf.sprintf "storage.%s.one_way_us" name)
      ~unit_:"us" ~better:R.Lower (elapsed /. n);
    R.scalar c
      ~name:(Printf.sprintf "storage.%s.host_copies_per_op" name)
      ~unit_:"ops" ~better:R.Lower copies;
    R.scalar c
      ~name:(Printf.sprintf "storage.%s.host_copied_bytes_per_op" name)
      ~unit_:"B" ~better:R.Lower copied;
    (elapsed /. n, copied)
  in
  (* zero-copy: cache frames flow as the transmit scatter list *)
  let sf_us, sf_copied =
    style "sendfile" (fun () ->
        ignore
          (must (Genie.File_io.sendfile fio ea ~fd ~off:0 ~len:xfer_len ())))
  in
  (* copy path: copyout to an application buffer, send with copy
     semantics *)
  let rs_us, rs_copied =
    style "readsend" (fun () ->
        must
          (Genie.File_io.read fio ~fd ~off:0 ~len:xfer_len
             ~on_complete:(fun data ->
               let buf =
                 Genie.Buf.map (Genie.Host.new_space w.Genie.World.a) ~len:xfer_len
               in
               Genie.Buf.write buf data;
               ignore
                 (must
                    (Genie.Endpoint.output ea ~sem:Genie.Semantics.copy ~buf
                       ())))))
  in
  (* the zero-copy claim *)
  R.scalar c ~name:"storage.sendfile.sender_zero_copy" ~unit_:"bool"
    ~better:R.Higher
    (if sf_copied = 0. then 1. else 0.);
  Stats.Text_table.add_row t
    [
      "file->network 16KB";
      Printf.sprintf "read+send %.0f us, %.0f B copied" rs_us rs_copied;
      Printf.sprintf "sendfile %.0f us, %.0f B copied" sf_us sf_copied;
      Printf.sprintf "%.1fx faster" (rs_us /. sf_us);
    ]

let run c =
  Printf.printf "\nStorage: page cache, block device, file-backed Genie I/O\n";
  Printf.printf "========================================================\n";
  let t =
    Stats.Text_table.create ~header:[ "benchmark"; "slow path"; "fast path"; "ratio" ]
  in
  bench_reads c t;
  bench_writes c t;
  bench_fsync c t;
  bench_sendfile c t;
  Stats.Text_table.print t;
  Printf.printf
    "(cold reads pay seek + media transfer with read-ahead; warm reads are\n\
     pure cache hits.  Cached writes complete at copyin speed; the tight\n\
     dirty budget exposes media bandwidth.  Sendfile references cache\n\
     frames into the transmit scatter list: zero sender-side copies.)\n"
