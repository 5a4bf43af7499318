(* Endpoint lifecycle tests: pending-input bookkeeping, drain/abandon,
   back-to-back pipelining, and interaction with flow control. *)

module As = Vm.Address_space
module Sem = Genie.Semantics

let light = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166
let psize = 4096

let setup mode =
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode in
  (w, ea, eb)

let make_buf host ~len =
  let space = Genie.Host.new_space host in
  let region = As.map_region space ~npages:((len + psize - 1) / psize) in
  Genie.Buf.make space ~addr:(As.base_addr region ~page_size:psize) ~len

let test_pending_counts () =
  let w, _, eb = setup Net.Adapter.Early_demux in
  Alcotest.(check int) "none" 0 (Genie.Endpoint.pending_inputs eb);
  let rbuf = make_buf w.Genie.World.b ~len:4096 in
  ignore
  (Genie.Endpoint.input eb ~sem:Sem.emulated_share
    ~spec:(Genie.Input_path.App_buffer rbuf)
    ~on_complete:(fun _ -> ()));
  Alcotest.(check int) "one pending" 1 (Genie.Endpoint.pending_inputs eb);
  Alcotest.(check int) "posted to the adapter" 1
    (Net.Adapter.posted_count w.Genie.World.b.Genie.Host.adapter ~vc:1);
  Genie.Endpoint.drain eb;
  Alcotest.(check int) "drained" 0 (Genie.Endpoint.pending_inputs eb);
  Alcotest.(check int) "unposted" 0
    (Net.Adapter.posted_count w.Genie.World.b.Genie.Host.adapter ~vc:1)

let test_drain_releases_references () =
  (* Draining an in-place input must drop the page references so the
     pages remain pageable and reclaimable. *)
  let w, _, eb = setup Net.Adapter.Early_demux in
  let rbuf = make_buf w.Genie.World.b ~len:8192 in
  ignore
  (Genie.Endpoint.input eb ~sem:Sem.emulated_share
    ~spec:(Genie.Input_path.App_buffer rbuf)
    ~on_complete:(fun _ -> ()));
  let frame =
    As.resolve_read rbuf.Genie.Buf.space
      ~vpn:(rbuf.Genie.Buf.addr / psize)
  in
  Alcotest.(check int) "input ref held" 1 frame.Memory.Frame.input_refs;
  Genie.Endpoint.drain eb;
  Alcotest.(check int) "reference dropped" 0 frame.Memory.Frame.input_refs

let test_cancel_unwires () =
  (* Share wires the application pages and weak move the system region
     at prepare time; cancelling the pending input must unwire them
     (regression: a share input cancelled after its matching output was
     rejected left the region wired forever). *)
  let w, _, eb = setup Net.Adapter.Early_demux in
  let host = w.Genie.World.b in
  let rbuf = make_buf host ~len:8192 in
  let region =
    As.region_of_addr rbuf.Genie.Buf.space ~vaddr:rbuf.Genie.Buf.addr
  in
  let post sem spec =
    match Genie.Endpoint.input eb ~sem ~spec ~on_complete:(fun _ -> ()) with
    | Ok h -> h
    | Error `Again -> Alcotest.fail "input rejected"
  in
  let h = post Sem.share (Genie.Input_path.App_buffer rbuf) in
  Alcotest.(check bool) "share input wired" true (region.Vm.Region.wired > 0);
  Alcotest.(check bool) "cancelled" true (Genie.Endpoint.cancel h);
  Alcotest.(check int) "share pages unwired" 0 region.Vm.Region.wired;
  let h2 =
    post Sem.weak_move
      (Genie.Input_path.Sys_alloc { space = rbuf.Genie.Buf.space; len = 8192 })
  in
  Alcotest.(check bool) "cancelled" true (Genie.Endpoint.cancel h2);
  Alcotest.(check (list string))
    "no invariant violations" []
    (List.map Check.Invariants.violation_to_string
       (Check.Invariants.check_host host))

let test_cancel_one_handle () =
  (* Cancelling one of several pending inputs unposts just that one;
     a second cancel — or a cancel after completion — is a no-op. *)
  let w, ea, eb = setup Net.Adapter.Early_demux in
  let adapter = w.Genie.World.b.Genie.Host.adapter in
  let post () =
    let rbuf = make_buf w.Genie.World.b ~len:4096 in
    match
      Genie.Endpoint.input eb ~sem:Sem.emulated_share
        ~spec:(Genie.Input_path.App_buffer rbuf)
        ~on_complete:(fun _ -> ())
    with
    | Ok h -> h
    | Error `Again -> Alcotest.fail "app-buffer input rejected"
  in
  let h1 = post () in
  let h2 = post () in
  Alcotest.(check int) "two pending" 2 (Genie.Endpoint.pending_inputs eb);
  Alcotest.(check int) "two posted" 2 (Net.Adapter.posted_count adapter ~vc:1);
  Alcotest.(check bool) "first cancel succeeds" true (Genie.Endpoint.cancel h1);
  Alcotest.(check int) "one pending left" 1 (Genie.Endpoint.pending_inputs eb);
  Alcotest.(check int) "one posted left" 1 (Net.Adapter.posted_count adapter ~vc:1);
  Alcotest.(check bool) "second cancel is a no-op" false
    (Genie.Endpoint.cancel h1);
  Alcotest.(check int) "still one pending" 1 (Genie.Endpoint.pending_inputs eb);
  (* The surviving input still completes a real transfer. *)
  let buf = make_buf w.Genie.World.a ~len:4096 in
  Genie.Buf.fill_pattern buf ~seed:9;
  ignore (Genie.Endpoint.output ea ~sem:Sem.emulated_share ~buf ());
  Genie.World.run w;
  Alcotest.(check int) "completed" 0 (Genie.Endpoint.pending_inputs eb);
  Alcotest.(check bool) "cancel after completion is a no-op" false
    (Genie.Endpoint.cancel h2)

let test_back_to_back_pipelining () =
  (* Ten sends issued in one burst, received in order into ten posted
     buffers; total time must be close to the serialized wire time of
     ten PDUs (the adapter pump keeps the link busy). *)
  let w, ea, eb = setup Net.Adapter.Early_demux in
  let len = 16384 in
  let recvs = Array.init 10 (fun _ -> make_buf w.Genie.World.b ~len) in
  let seqs = ref [] in
  Array.iter
    (fun rbuf ->
      ignore
      (Genie.Endpoint.input eb ~sem:Sem.emulated_copy
        ~spec:(Genie.Input_path.App_buffer rbuf)
        ~on_complete:(fun r -> seqs := r.Genie.Input_path.seq :: !seqs)))
    recvs;
  let t0 = Genie.Host.now_us w.Genie.World.a in
  for i = 0 to 9 do
    let buf = make_buf w.Genie.World.a ~len in
    Genie.Buf.fill_pattern buf ~seed:i;
    ignore (Genie.Endpoint.output ea ~sem:Sem.emulated_copy ~buf ~seq:i ())
  done;
  Genie.World.run w;
  let elapsed = Genie.Host.now_us w.Genie.World.a -. t0 in
  Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !seqs);
  (* Ten PDUs of ~16.4 KB take ~9.7 ms of wire time; allow some slack. *)
  Alcotest.(check bool)
    (Printf.sprintf "pipelined (%.0f us)" elapsed)
    true
    (elapsed < 12_000.);
  (* Every buffer holds its own datagram. *)
  Array.iteri
    (fun i rbuf ->
      if not (Bytes.equal (Genie.Buf.read rbuf) (Genie.Buf.expected_pattern ~len ~seed:i))
      then Alcotest.failf "buffer %d mismatched" i)
    recvs

let test_arq_over_credited_link () =
  (* Reliable transport over a flow-controlled VC with corruption: both
     mechanisms compose. *)
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  let ha = w.Genie.World.a in
  Simcore.Tracer.enable_counters ha.Genie.Host.tracer;
  let da, db = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let aa, ab = Genie.World.endpoint_pair w ~vc:2 ~mode:Net.Adapter.Early_demux in
  Net.Adapter.set_credit_limit w.Genie.World.a.Genie.Host.adapter ~vc:1 ~cells:600;
  let tx = Genie.Rel_channel.create ~data:da ~ack:aa Sem.emulated_copy in
  let rx = Genie.Rel_channel.create ~data:db ~ack:ab Sem.emulated_copy in
  let len = 5 * 61440 in
  let src = make_buf w.Genie.World.a ~len in
  Genie.Buf.fill_pattern src ~seed:88;
  let dst = make_buf w.Genie.World.b ~len in
  let done_ok = ref false in
  Genie.Rel_channel.recv rx ~buf:dst ~on_complete:(fun ~ok -> done_ok := ok) ();
  Net.Adapter.corrupt_next_pdu w.Genie.World.a.Genie.Host.adapter ~vc:1;
  Genie.Rel_channel.send tx ~buf:src ~on_complete:(fun _ -> ());
  Genie.World.run w;
  Alcotest.(check bool) "delivered" true !done_ok;
  Alcotest.(check bool) "stalled for credits" true
    (Simcore.Tracer.counter ha.Genie.Host.tracer ~host:ha.Genie.Host.name
       "tx_stalls"
     > 0);
  Alcotest.(check bool) "payload intact" true
    (Bytes.equal (Genie.Buf.read dst) (Genie.Buf.expected_pattern ~len ~seed:88))

let test_unknown_vc_ignored () =
  (* A PDU for a VC with no endpoint is dropped without disturbing
     anything. *)
  let w, _, _ = setup Net.Adapter.Early_demux in
  let src = make_buf w.Genie.World.a ~len:1000 in
  Genie.Buf.fill_pattern src ~seed:1;
  let handle =
    Vm.Page_ref.reference src.Genie.Buf.space ~addr:src.Genie.Buf.addr ~len:1000
      Vm.Page_ref.For_output
  in
  Net.Adapter.set_rx_mode w.Genie.World.b.Genie.Host.adapter ~vc:99
    Net.Adapter.Outboard;
  Net.Adapter.transmit w.Genie.World.a.Genie.Host.adapter ~vc:99
    ~hdr:(Bytes.create 4) ~desc:handle.Vm.Page_ref.desc
    ~on_tx_complete:(fun () -> Vm.Page_ref.unreference handle);
  Genie.World.run w

let suite =
  [
    Alcotest.test_case "pending counts and drain" `Quick test_pending_counts;
    Alcotest.test_case "drain releases references" `Quick
      test_drain_releases_references;
    Alcotest.test_case "cancel unwires prepared input" `Quick
      test_cancel_unwires;
    Alcotest.test_case "cancel one handle" `Quick test_cancel_one_handle;
    Alcotest.test_case "back-to-back pipelining" `Quick test_back_to_back_pipelining;
    Alcotest.test_case "ARQ over a credited link" `Quick test_arq_over_credited_link;
    Alcotest.test_case "unknown VC ignored" `Quick test_unknown_vc_ignored;
  ]
