(* Wall-clock data-path throughput: how fast the reproduction itself
   moves bytes, contrasting the zero-copy scatter-gather views and
   pooled buffers with the copy-per-stage style they replaced.

   Everything here is recorded with the tolerant [Wall] kind.  Raw
   throughputs (PDUs/s, pages/s) are machine-dependent and stay
   informational: the committed baseline keeps only the machine-portable
   subset — allocation counts per operation (deterministic for a given
   build) and 0/1 indicator metrics asserting that the within-run
   speedup of the view path over the copy path clears its floor.  See
   docs/PERFORMANCE.md. *)

module R = Stats.Bench_result

let pdu_len = 61440
let payload = Bytes.init pdu_len (fun i -> Char.chr (i land 0xFF))

(* Per-op wall seconds and minor-heap words, measured over one timed
   batch after a warmup batch. *)
let time_per_op ~warmup ~iters f =
  for _ = 1 to warmup do
    f ()
  done;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let n = float_of_int iters in
  (dt /. n, (Gc.minor_words () -. w0) /. n)

let pretty_rate per_s =
  if per_s > 1e6 then Printf.sprintf "%.2f M/s" (per_s /. 1e6)
  else if per_s > 1e3 then Printf.sprintf "%.1f k/s" (per_s /. 1e3)
  else Printf.sprintf "%.0f /s" per_s

(* {1 Adapter tx staging (CRC excluded)}

   The scatter-gather data path proper: stage a 60 KB PDU scattered
   over page frames onto the wire as burst-sized cell windows
   ([Net_params.burst_pages] pages of 48-byte cell payloads per burst).
   The CRC pass costs the same in both styles (it now runs over views
   either way), so it is excluded here to isolate the data movement.

   Copy style (what the pre-view adapter did): gather the whole framed
   PDU from its page frames into a fresh contiguous buffer, then copy
   every burst window out of it with [Bytes.sub] — two full traversals
   and a fresh multi-KB allocation per burst.  View style (what
   [Adapter.transmit] does now): describe the PDU as frame-backed
   views and gather each burst window once, directly into a pooled
   staging buffer. *)

let phys_spec =
  { Machine.Machine_spec.micron_p166 with Machine.Machine_spec.memory_mb = 2 }

let framed_len = Net.Aal5.wire_bytes pdu_len / Net.Aal5.cell_total * Net.Aal5.cell_payload
let tail_len = framed_len - pdu_len
let tail = Bytes.make tail_len '\x00'
let burst_len = Net.Net_params.oc3.Net.Net_params.burst_pages * 4096
let nbursts = (framed_len + burst_len - 1) / burst_len

let pdu_frames =
  let pm = Memory.Phys_mem.create phys_spec in
  Array.init
    ((pdu_len + 4095) / 4096)
    (fun i ->
      let f = Memory.Phys_mem.alloc pm in
      let n = min 4096 (pdu_len - (i * 4096)) in
      Bytes.blit payload (i * 4096) (Memory.Frame.data f) 0 n;
      f)

let tx_stage_copy () =
  let framed = Bytes.create framed_len in
  Array.iteri
    (fun i f ->
      let n = min 4096 (pdu_len - (i * 4096)) in
      Bytes.blit (Memory.Frame.data f) 0 framed (i * 4096) n)
    pdu_frames;
  Bytes.blit tail 0 framed pdu_len tail_len;
  for b = 0 to nbursts - 1 do
    let off = b * burst_len in
    ignore (Bytes.sub framed off (min burst_len (framed_len - off)))
  done

let stage_pool = Memory.Buf_pool.create ()

let tx_stage_view () =
  let views =
    Array.to_list
      (Array.mapi
         (fun i f ->
           Memory.Iovec.of_frame f ~off:0 ~len:(min 4096 (pdu_len - (i * 4096))))
         pdu_frames)
  in
  let framed = Memory.Iovec.concat (views @ [ Memory.Iovec.of_bytes tail ]) in
  for b = 0 to nbursts - 1 do
    let off = b * burst_len in
    let len = min burst_len (framed_len - off) in
    let chunk = Memory.Buf_pool.take stage_pool ~len in
    Memory.Iovec.blit_to (Memory.Iovec.sub framed ~off ~len) ~dst:chunk
      ~dst_off:0;
    Memory.Buf_pool.give stage_pool chunk
  done

(* {1 Full AAL5 API (CRC included)}  Informational context for the
   numbers above: the complete encode+decode pipelines, which both pay
   two CRC passes over the wire image. *)

let aal5_bytes_api () =
  match Net.Aal5.decode (Net.Aal5.encode payload) with
  | Ok _ -> ()
  | Error _ -> assert false

let aal5_view_api () =
  match Net.Aal5.decode_iov (Net.Aal5.encode_iov (Memory.Iovec.of_bytes payload)) with
  | Ok v -> assert (Memory.Iovec.length v = pdu_len)
  | Error _ -> assert false

(* {1 Adapter ping-pong}  One full simulated latency probe per op: the
   pooled tx staging and view-native cellification sit on its data path.
   The simulator is deterministic, so minor words per run is a stable,
   machine-portable allocation-pressure metric. *)

let probe () =
  let cfg =
    {
      (Workload.Latency_probe.default ~sem:Genie.Semantics.emulated_copy
         ~len:16384)
      with
      Workload.Latency_probe.mode = Net.Adapter.Early_demux;
      runs = 1;
      warmup = 1;
      spec = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166;
    }
  in
  ignore (Workload.Latency_probe.run cfg)

(* {1 Ring fast path: msgs/s vs batch size}

   The bchan-style sweep: push b small messages through the
   submission/completion rings, stage them into ONE pooled chunk, and
   charge their CPU cost with ONE [Ops.charge_n] per burst — then
   divide by b.  At batch 1 every message pays the full per-burst
   overhead (pool take/give, cost-model lookup + CPU charge, drain
   setup); at batch 64 those amortize 64 ways and only the per-message
   ring slot and 256-byte blit remain.  The simulated time charged per
   message is identical at every batch size ([charge_n] exactness, law-
   tested in test_ring) — the sweep measures host-side amortization
   only, which is the entire claim of the batched endpoint path. *)

let msg_len = 256
let max_batch = 256

let msg_views =
  Array.init max_batch (fun i ->
      Memory.Iovec.of_bytes
        (Bytes.init msg_len (fun j -> Char.chr ((i + j) land 0xFF))))

let ring_ops =
  let engine = Simcore.Engine.create () in
  Genie.Ops.create
    (Simcore.Cpu.create engine)
    (Machine.Cost_model.create Machine.Machine_spec.micron_p166)

let ring_pool = Memory.Buf_pool.create ()
let ring_sq = Genie.Ring.create ~capacity:max_batch ~dummy:(-1) ()
let ring_cq = Genie.Ring.create ~capacity:max_batch ~dummy:(-1) ()

let ring_burst b () =
  for i = 0 to b - 1 do
    ignore (Genie.Ring.try_push ring_sq i)
  done;
  let chunk = Memory.Buf_pool.take ring_pool ~len:(b * msg_len) in
  ignore
    (Genie.Ring.drain ring_sq ~f:(fun i ->
         Memory.Iovec.blit_to msg_views.(i) ~dst:chunk ~dst_off:(i * msg_len);
         ignore (Genie.Ring.try_push ring_cq i)));
  Genie.Ops.charge_n ring_ops Machine.Cost_model.Copyin
    ~unit:(`Bytes msg_len) ~n:b;
  Memory.Buf_pool.give ring_pool chunk;
  ignore (Genie.Ring.drain ring_cq ~f:ignore)

(* {1 Frame allocation}  Known-zero tracking lets [alloc_zeroed] skip
   the page-size refill for frames that were never handed out; recycled
   frames still pay it.  Pool staging replaces a fresh [Bytes.create]
   per transmitted PDU with an O(1) take/give pair. *)

let run c =
  Printf.printf "\nWall-clock data-path metrics (views and pools vs copies)\n";
  Printf.printf "========================================================\n";
  let t =
    Stats.Text_table.create
      ~header:[ "data path"; "copy style"; "view/pool style"; "speedup" ]
  in
  let wall name ?(better = R.Neutral) ~unit_ v =
    R.scalar c ~name ~unit_ ~kind:R.Wall ~better v
  in
  (* -- adapter tx burst staging, CRC excluded -- *)
  let copy_s, copy_w = time_per_op ~warmup:100 ~iters:1000 tx_stage_copy in
  let view_s, view_w = time_per_op ~warmup:100 ~iters:1000 tx_stage_view in
  let speedup = copy_s /. view_s in
  wall "wall.tx_stage.copy_pdus_per_s" ~better:R.Higher ~unit_:"PDU/s"
    (1. /. copy_s);
  wall "wall.tx_stage.view_pdus_per_s" ~better:R.Higher ~unit_:"PDU/s"
    (1. /. view_s);
  wall "wall.tx_stage.view_speedup" ~better:R.Higher ~unit_:"x" speedup;
  wall "wall.tx_stage.view_speedup_ge2" ~better:R.Higher ~unit_:"bool"
    (if speedup >= 2. then 1. else 0.);
  wall "wall.tx_stage.copy_minor_words_per_pdu" ~better:R.Lower ~unit_:"words"
    copy_w;
  wall "wall.tx_stage.view_minor_words_per_pdu" ~better:R.Lower ~unit_:"words"
    view_w;
  Stats.Text_table.add_row t
    [
      "adapter tx staging 60KB -> 16KB bursts";
      pretty_rate (1. /. copy_s);
      pretty_rate (1. /. view_s);
      Printf.sprintf "%.2fx" speedup;
    ];
  (* -- full AAL5 API, CRC included (context) -- *)
  let api_copy_s, api_copy_w = time_per_op ~warmup:20 ~iters:100 aal5_bytes_api in
  let api_view_s, api_view_w = time_per_op ~warmup:20 ~iters:100 aal5_view_api in
  wall "wall.aal5.api_bytes_pdus_per_s" ~better:R.Higher ~unit_:"PDU/s"
    (1. /. api_copy_s);
  wall "wall.aal5.api_view_pdus_per_s" ~better:R.Higher ~unit_:"PDU/s"
    (1. /. api_view_s);
  wall "wall.aal5.api_bytes_minor_words_per_pdu" ~better:R.Lower ~unit_:"words"
    api_copy_w;
  wall "wall.aal5.api_view_minor_words_per_pdu" ~better:R.Lower ~unit_:"words"
    api_view_w;
  Stats.Text_table.add_row t
    [
      "aal5 encode+decode 60KB (with CRC)";
      pretty_rate (1. /. api_copy_s);
      pretty_rate (1. /. api_view_s);
      Printf.sprintf "%.2fx" (api_copy_s /. api_view_s);
    ];
  (* -- adapter ping-pong probe -- *)
  let probe_s, probe_w = time_per_op ~warmup:2 ~iters:10 probe in
  wall "wall.probe.runs_per_s" ~better:R.Higher ~unit_:"run/s" (1. /. probe_s);
  wall "wall.probe.minor_words_per_run" ~better:R.Lower ~unit_:"words" probe_w;
  Stats.Text_table.add_row t
    [
      "latency probe (16KB emulated copy)";
      "-";
      pretty_rate (1. /. probe_s);
      "-";
    ];
  (* -- ring fast path: msgs/s vs batch size -- *)
  let sweep =
    List.map
      (fun b ->
        let iters = max 200 (20_000 / b) in
        let s, w = time_per_op ~warmup:(iters / 10) ~iters (ring_burst b) in
        let msgs_per_s = float_of_int b /. s in
        wall
          (Printf.sprintf "wall.ring.msgs_per_s.b%d" b)
          ~better:R.Higher ~unit_:"msg/s" msgs_per_s;
        (b, msgs_per_s, w /. float_of_int b))
      [ 1; 4; 16; 64; 256 ]
  in
  let rate_of b = let _, r, _ = List.find (fun (b', _, _) -> b' = b) sweep in r in
  let words_of b = let _, _, w = List.find (fun (b', _, _) -> b' = b) sweep in w in
  let batch64_speedup = rate_of 64 /. rate_of 1 in
  wall "wall.ring.batch64_speedup" ~better:R.Higher ~unit_:"x" batch64_speedup;
  wall "wall.ring.batch64_speedup_ge2" ~better:R.Higher ~unit_:"bool"
    (if batch64_speedup >= 2. then 1. else 0.);
  wall "wall.ring.minor_words_per_msg_b1" ~better:R.Lower ~unit_:"words"
    (words_of 1);
  wall "wall.ring.minor_words_per_msg_b64" ~better:R.Lower ~unit_:"words"
    (words_of 64);
  Stats.Text_table.add_row t
    [
      "ring staging 256B msgs (batch 1 vs 64)";
      pretty_rate (rate_of 1);
      pretty_rate (rate_of 64);
      Printf.sprintf "%.2fx" batch64_speedup;
    ];
  Printf.printf "\nring batch sweep (256B msgs through sq/cq + pooled chunk + charge_n):\n";
  List.iter
    (fun (b, r, w) ->
      Printf.printf "  batch %3d: %10s  (%.1f minor words/msg)\n" b
        (pretty_rate r) w)
    sweep;
  (* -- frame allocation: known-zero skip -- *)
  let pm = Memory.Phys_mem.create phys_spec in
  let nframes = Memory.Phys_mem.free_frames pm in
  let drain () =
    let frames = Array.init nframes (fun _ -> Memory.Phys_mem.alloc_zeroed pm) in
    Array.iter (Memory.Phys_mem.deallocate pm) frames
  in
  let fresh_t0 = Unix.gettimeofday () in
  drain ();
  let fresh_s = (Unix.gettimeofday () -. fresh_t0) /. float_of_int nframes in
  (* every frame is dirty now: the second drain pays the refill *)
  let recycled_s, _ = time_per_op ~warmup:1 ~iters:5 drain in
  let recycled_s = recycled_s /. float_of_int nframes in
  let zero_skip = recycled_s /. fresh_s in
  wall "wall.phys.fresh_zeroed_pages_per_s" ~better:R.Higher ~unit_:"page/s"
    (1. /. fresh_s);
  wall "wall.phys.recycled_zeroed_pages_per_s" ~better:R.Higher ~unit_:"page/s"
    (1. /. recycled_s);
  wall "wall.phys.zero_skip_speedup" ~better:R.Higher ~unit_:"x" zero_skip;
  wall "wall.phys.zero_skip_ge2" ~better:R.Higher ~unit_:"bool"
    (if zero_skip >= 2. then 1. else 0.);
  Stats.Text_table.add_row t
    [
      "phys alloc_zeroed+release (4KB pages)";
      pretty_rate (1. /. recycled_s);
      pretty_rate (1. /. fresh_s);
      Printf.sprintf "%.2fx" zero_skip;
    ];
  (* -- tx staging: pooled take/give vs fresh allocation -- *)
  let pool = Memory.Buf_pool.create () in
  let stage_len = 8192 in
  let pooled () =
    let b = Memory.Buf_pool.take pool ~len:stage_len in
    Bytes.blit payload 0 b 0 stage_len;
    Memory.Buf_pool.give pool b
  in
  let fresh () =
    let b = Bytes.create stage_len in
    Bytes.blit payload 0 b 0 stage_len
  in
  let fresh_s, _ = time_per_op ~warmup:200 ~iters:3000 fresh in
  let pooled_s, _ = time_per_op ~warmup:200 ~iters:3000 pooled in
  wall "wall.pool.fresh_stagings_per_s" ~better:R.Higher ~unit_:"op/s"
    (1. /. fresh_s);
  wall "wall.pool.pooled_stagings_per_s" ~better:R.Higher ~unit_:"op/s"
    (1. /. pooled_s);
  wall "wall.pool.reuse_speedup" ~better:R.Higher ~unit_:"x"
    (fresh_s /. pooled_s);
  Stats.Text_table.add_row t
    [
      "tx staging buffer 8KB (alloc vs pool)";
      pretty_rate (1. /. fresh_s);
      pretty_rate (1. /. pooled_s);
      Printf.sprintf "%.2fx" (fresh_s /. pooled_s);
    ];
  Stats.Text_table.print t;
  Printf.printf
    "(copy style reproduces the pre-view implementation; CRC passes are\n\
     identical in both styles and excluded from the tx staging row.\n\
     Minor words/op and the >=2x indicators are the gated baseline subset.)\n"
