(* Degraded-mode benchmarks: the robustness ladder under resource
   exhaustion and link faults, as deterministic simulated-time metrics.

   Four scenarios, each driven to a typed outcome (no exceptions):

   - semantics fallback: overlay-pool pressure converts an emulated-copy
     output into plain copy (the latency cost of the fallback rung);
   - backpressure: frame exhaustion with nothing evictable makes the
     output path return [`Again] instead of raising;
   - reclaim-retry: the same demand against cold pageable memory is
     admitted after a pageout reclaim;
   - reliable transport: go-back-N completion time on a clean link vs
     one with a deterministic PDU drop.

   Everything is seed-free and simulated, so the numbers are exact and
   gate strictly under `bench compare`. *)

module R = Stats.Bench_result
module As = Vm.Address_space
module Sem = Genie.Semantics

let light = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166
let psize = 4096

let make_buf ?(pageable = true) host ~len =
  let space = Genie.Host.new_space host in
  let region = As.map_region space ~npages:((len + psize - 1) / psize) ~pageable in
  Genie.Buf.make space ~addr:(As.base_addr region ~page_size:psize) ~len

(* One-way latency of a single transfer, returning the semantics the
   output path actually used (the fallback makes it differ from the one
   requested). *)
let one_way w ~sem ~len =
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let src = make_buf w.Genie.World.a ~len in
  Genie.Buf.fill_pattern src ~seed:3;
  let dst = make_buf w.Genie.World.b ~len in
  let done_at = ref nan in
  (match
     Genie.Endpoint.input eb ~sem ~spec:(Genie.Input_path.App_buffer dst)
       ~on_complete:(fun r ->
         if not (Genie.Input_path.ok r) then failwith "degraded-mode transfer failed";
         done_at := Genie.Host.now_us w.Genie.World.b)
   with
  | Ok _ -> ()
  | Error `Again -> failwith "degraded-mode input rejected");
  let t0 = Genie.Host.now_us w.Genie.World.a in
  let used =
    match Genie.Endpoint.output ea ~sem ~buf:src () with
    | Ok o -> o.Genie.Output_path.semantics_used
    | Error `Again -> failwith "degraded-mode transfer rejected"
  in
  Genie.World.run w;
  (!done_at -. t0, used)

let fallback c =
  let len = 16384 in
  let healthy_us, healthy_sem =
    one_way (Genie.World.create ~spec_a:light ~spec_b:light ()) ~sem:Sem.emulated_copy ~len
  in
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  (* Drain the sender's overlay pool below the fallback watermark. *)
  let rec drain n =
    if n > 0 then
      match Genie.Host.pool_take_opt w.Genie.World.a with
      | Some _ -> drain (n - 1)
      | None -> ()
  in
  drain (Genie.Host.pool_level w.Genie.World.a);
  let degraded_us, degraded_sem = one_way w ~sem:Sem.emulated_copy ~len in
  R.scalar c ~name:"degraded_mode.fallback.healthy_us" ~unit_:"us" healthy_us;
  R.scalar c ~name:"degraded_mode.fallback.degraded_us" ~unit_:"us" degraded_us;
  R.scalar c ~name:"degraded_mode.fallback.fell_back" ~unit_:"bool"
    (if Sem.equal degraded_sem Sem.copy && Sem.equal healthy_sem Sem.emulated_copy
     then 1.
     else 0.);
  Printf.printf
    "semantics fallback: emulated copy %.1f us healthy, %.1f us degraded to %s\n"
    healthy_us degraded_us (Sem.name degraded_sem)

(* Exhaust a host's frames with a hog region, leaving [spare] free. *)
let hog_frames host ~pageable ~spare =
  let phys = host.Genie.Host.vm.Vm.Vm_sys.phys in
  let space = Genie.Host.new_space host in
  let npages = Memory.Phys_mem.free_frames phys - spare in
  ignore (As.map_region space ~npages ~pageable)

let tiny = { light with Machine.Machine_spec.memory_mb = 1 }

let backpressure c =
  let w = Genie.World.create ~spec_a:tiny ~spec_b:light ~pool_frames:32 () in
  let ea, _eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let len = 12 * psize in
  (* The source buffer is unpageable too, so the reclaim retry cannot
     free anything by evicting the very data being sent. *)
  let src = make_buf ~pageable:false w.Genie.World.a ~len in
  Genie.Buf.fill_pattern src ~seed:4;
  (* Unpageable hog: nothing to evict, so plain-copy staging demand must
     be rejected with the typed [`Again], never an exception. *)
  hog_frames w.Genie.World.a ~pageable:false ~spare:4;
  let rejects = ref 0 in
  for _ = 1 to 4 do
    match Genie.Endpoint.output ea ~sem:Sem.copy ~buf:src () with
    | Ok _ -> ()
    | Error `Again -> incr rejects
  done;
  R.scalar c ~name:"degraded_mode.backpressure.rejects" ~unit_:"count" (float_of_int !rejects);
  Printf.printf "backpressure: %d of 4 outputs rejected with `Again\n" !rejects

let reclaim c =
  let w = Genie.World.create ~spec_a:tiny ~spec_b:light ~pool_frames:32 () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let len = 12 * psize in
  let src = make_buf w.Genie.World.a ~len in
  Genie.Buf.fill_pattern src ~seed:5;
  let dst = make_buf w.Genie.World.b ~len in
  (* Cold but pageable hog: the same staging demand is admitted after a
     pageout reclaim. *)
  hog_frames w.Genie.World.a ~pageable:true ~spare:4;
  let done_at = ref nan in
  (match
     Genie.Endpoint.input eb ~sem:Sem.copy ~spec:(Genie.Input_path.App_buffer dst)
       ~on_complete:(fun r ->
         if Genie.Input_path.ok r then done_at := Genie.Host.now_us w.Genie.World.b)
   with
  | Ok _ -> ()
  | Error `Again -> failwith "reclaim input rejected");
  let t0 = Genie.Host.now_us w.Genie.World.a in
  let admitted =
    match Genie.Endpoint.output ea ~sem:Sem.copy ~buf:src () with
    | Ok _ -> 1.
    | Error `Again -> 0.
  in
  Genie.World.run w;
  R.scalar c ~name:"degraded_mode.reclaim.admitted" ~unit_:"bool" admitted;
  R.scalar c ~name:"degraded_mode.reclaim.latency_us" ~unit_:"us"
    (!done_at -. t0);
  Printf.printf "reclaim-retry: output admitted=%.0f, delivered in %.1f us\n"
    admitted (!done_at -. t0)

let rel_transfer ~drop =
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  let da, db = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let aa, ab = Genie.World.endpoint_pair w ~vc:2 ~mode:Net.Adapter.Early_demux in
  let mk data ack =
    Genie.Rel_channel.create ~chunk:8192 ~window:2 ~ack_timeout_us:3000.
      ~data ~ack Sem.emulated_copy
  in
  let tx = mk da aa and rx = mk db ab in
  let len = 3 * 8192 in
  let src = make_buf w.Genie.World.a ~len in
  Genie.Buf.fill_pattern src ~seed:6;
  let dst = make_buf w.Genie.World.b ~len in
  let retx = ref (-1) in
  Genie.Rel_channel.recv rx ~buf:dst ~on_complete:(fun ~ok ->
      if not ok then failwith "degraded-mode reliable transfer failed")
    ();
  if drop then
    Net.Adapter.inject_fault w.Genie.World.a.Genie.Host.adapter ~vc:1
      Net.Adapter.Drop;
  let t0 = Genie.Host.now_us w.Genie.World.a in
  Genie.Rel_channel.send tx ~buf:src ~on_complete:(function
    | Ok r -> retx := r
    | Error (`Gave_up _) -> failwith "degraded-mode reliable sender gave up");
  Genie.World.run w;
  (Genie.Host.now_us w.Genie.World.a -. t0, !retx)

let rel c =
  let clean_us, _ = rel_transfer ~drop:false in
  let drop_us, retx = rel_transfer ~drop:true in
  R.scalar c ~name:"degraded_mode.rel.clean_us" ~unit_:"us" clean_us;
  R.scalar c ~name:"degraded_mode.rel.drop_us" ~unit_:"us" drop_us;
  R.scalar c ~name:"degraded_mode.rel.drop_retransmits" ~unit_:"count" (float_of_int retx);
  Printf.printf
    "reliable transport: clean %.1f us; one dropped PDU %.1f us (%d retx)\n"
    clean_us drop_us retx

let run c =
  Printf.printf "\nDegraded mode: typed outcomes under exhaustion and faults\n";
  Printf.printf "=========================================================\n";
  fallback c;
  backpressure c;
  reclaim c;
  rel c
