(* Segmented message transport on a clean link: messages far beyond one
   AAL5 PDU, odd lengths, chunk pipelining and line-rate throughput, and
   the argument checks.  [Genie.Rel_channel] is the one message channel;
   on a fault-free link its go-back-N machinery never retransmits, so
   these cases pin the segmenting behaviour itself. *)

module As = Vm.Address_space
module Sem = Genie.Semantics

let light = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166
let psize = 4096

let make_buf host ~len =
  let space = Genie.Host.new_space host in
  let region = As.map_region space ~npages:((len + psize - 1) / psize) in
  Genie.Buf.make space ~addr:(As.base_addr region ~page_size:psize) ~len

let channel ?chunk w ~sem =
  let da, db = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let aa, ab = Genie.World.endpoint_pair w ~vc:2 ~mode:Net.Adapter.Early_demux in
  ( Genie.Rel_channel.create ?chunk ~data:da ~ack:aa sem,
    Genie.Rel_channel.create ?chunk ~data:db ~ack:ab sem )

let transfer ?chunk ~sem ~len () =
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  let tx, rx = channel ?chunk w ~sem in
  let src = make_buf w.Genie.World.a ~len in
  Genie.Buf.fill_pattern src ~seed:60;
  let dst = make_buf w.Genie.World.b ~len in
  let sent = ref None and received_ok = ref false and t_recv = ref 0. in
  let t0 = Genie.Host.now_us w.Genie.World.a in
  Genie.Rel_channel.recv rx ~buf:dst
    ~on_complete:(fun ~ok ->
      received_ok := ok;
      t_recv := Genie.Host.now_us w.Genie.World.b)
    ();
  Genie.Rel_channel.send tx ~buf:src ~on_complete:(fun r -> sent := Some r);
  Genie.World.run w;
  let elapsed = !t_recv -. t0 in
  Alcotest.(check bool) "send completed, no retransmission" true
    (!sent = Some (Ok 0));
  Alcotest.(check bool) "recv ok" true !received_ok;
  Alcotest.(check bool) "payload"
    true
    (Bytes.equal (Genie.Buf.read dst) (Genie.Buf.expected_pattern ~len ~seed:60));
  elapsed

let test_one_megabyte () =
  (* 1 MB message = 18 chunks of 60 KB; far beyond one AAL5 PDU. *)
  ignore (transfer ~sem:Sem.emulated_copy ~len:(1024 * 1024) ())

let test_odd_length_message () =
  ignore (transfer ~sem:Sem.emulated_copy ~len:123_457 ())

let test_small_message_single_chunk () =
  ignore (transfer ~sem:Sem.copy ~len:500 ())

let test_all_app_semantics () =
  List.iter
    (fun sem -> ignore (transfer ~sem ~len:200_000 ()))
    [ Sem.copy; Sem.emulated_copy; Sem.share; Sem.emulated_share ]

let test_pipelining_beats_serial () =
  (* Pipelined chunks: total time must be well below the sum of
     independent one-chunk latencies. *)
  let chunked = transfer ~sem:Sem.emulated_copy ~len:(8 * 61440) ~chunk:61440 () in
  let single = transfer ~sem:Sem.emulated_copy ~len:61440 () in
  Alcotest.(check bool) "pipelined" true (chunked < 8. *. single *. 0.95)

let test_throughput_approaches_line_rate () =
  (* A long pipelined message should sustain close to the single-datagram
     equivalent throughput (the wire is the bottleneck, not latency). *)
  let len = 16 * 61440 in
  let us = transfer ~sem:Sem.emulated_copy ~len () in
  let mbps = 8. *. float_of_int len /. us in
  Alcotest.(check bool)
    (Printf.sprintf "sustained %.0f Mbps" mbps)
    true (mbps > 125.)

let test_system_semantics_rejected () =
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (channel w ~sem:Sem.move);
       false
     with Vm.Vm_error.Semantics_error _ -> true)

let test_bad_chunk_rejected () =
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  Alcotest.(check bool) "zero chunk" true
    (try
       ignore (channel ~chunk:0 w ~sem:Sem.copy);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "oversized chunk" true
    (try
       ignore (channel ~chunk:70_000 w ~sem:Sem.copy);
       false
     with Invalid_argument _ -> true)

let msg_roundtrip_random =
  QCheck.Test.make ~name:"message roundtrip at random lengths" ~count:15
    QCheck.(pair (int_range 1 150_000) (int_range 0 3))
    (fun (len, sem_idx) ->
      let sem =
        List.nth [ Sem.copy; Sem.emulated_copy; Sem.share; Sem.emulated_share ]
          sem_idx
      in
      try
        ignore (transfer ~sem ~len ());
        true
      with _ -> false)

let suite =
  [
    Alcotest.test_case "1 MB message" `Quick test_one_megabyte;
    Alcotest.test_case "odd-length message" `Quick test_odd_length_message;
    Alcotest.test_case "small single-chunk message" `Quick
      test_small_message_single_chunk;
    Alcotest.test_case "all application-allocated semantics" `Quick
      test_all_app_semantics;
    Alcotest.test_case "chunks pipeline" `Quick test_pipelining_beats_serial;
    Alcotest.test_case "sustained throughput near line rate" `Quick
      test_throughput_approaches_line_rate;
    Alcotest.test_case "system semantics rejected" `Quick
      test_system_semantics_rejected;
    Alcotest.test_case "bad chunk sizes rejected" `Quick test_bad_chunk_rejected;
    QCheck_alcotest.to_alcotest msg_roundtrip_random;
  ]
