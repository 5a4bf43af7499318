(* Credit-based flow control (the Credit Net mechanism, paper ref [14]).
   Small credit windows must throttle the sender without corrupting
   data; generous windows must behave exactly like uncredited VCs. *)

let light = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166

(* Credit parks on the sending host, read from its [tx_stalls] counter;
   host a's tracer must be counting. *)
let tx_stalls (w : Genie.World.t) =
  let h = w.Genie.World.a in
  Simcore.Tracer.counter h.Genie.Host.tracer ~host:h.Genie.Host.name "tx_stalls"

let one_way ?credit_cells len =
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  Simcore.Tracer.enable_counters w.Genie.World.a.Genie.Host.tracer;
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  (match credit_cells with
  | Some cells ->
    Net.Adapter.set_credit_limit w.Genie.World.a.Genie.Host.adapter ~vc:1 ~cells
  | None -> ());
  let psize = 4096 in
  let npages = (len + psize - 1) / psize in
  let sa = Genie.Host.new_space w.Genie.World.a in
  let region = Vm.Address_space.map_region sa ~npages in
  let buf =
    Genie.Buf.make sa ~addr:(Vm.Address_space.base_addr region ~page_size:psize) ~len
  in
  Genie.Buf.fill_pattern buf ~seed:50;
  let sb = Genie.Host.new_space w.Genie.World.b in
  let rregion = Vm.Address_space.map_region sb ~npages in
  let rbuf =
    Genie.Buf.make sb ~addr:(Vm.Address_space.base_addr rregion ~page_size:psize) ~len
  in
  let done_at = ref None in
  ignore
  (Genie.Endpoint.input eb ~sem:Genie.Semantics.emulated_share
    ~spec:(Genie.Input_path.App_buffer rbuf)
    ~on_complete:(fun r ->
      if not (Genie.Input_path.ok r) then Alcotest.fail "transfer failed";
      done_at := Some (Genie.Host.now_us w.Genie.World.b)));
  ignore (Genie.Endpoint.output ea ~sem:Genie.Semantics.emulated_share ~buf ());
  Genie.World.run w;
  let latency = match !done_at with Some t -> t | None -> Alcotest.fail "no completion" in
  let data_ok =
    Bytes.equal (Genie.Buf.read rbuf) (Genie.Buf.expected_pattern ~len ~seed:50)
  in
  (latency, data_ok, tx_stalls w,
   Net.Adapter.credits_available w.Genie.World.a.Genie.Host.adapter ~vc:1)

let test_uncredited_baseline () =
  let _, ok, stalls, credits = one_way 61440 in
  Alcotest.(check bool) "data" true ok;
  Alcotest.(check int) "no stalls" 0 stalls;
  Alcotest.(check bool) "uncredited" true (credits = None)

let test_generous_window_no_stall () =
  (* A 60 KB PDU is ~1281 cells; a 2000-cell window never stalls. *)
  let unthrottled, _, _, _ = one_way 61440 in
  let lat, ok, stalls, _ = one_way ~credit_cells:2000 61440 in
  Alcotest.(check bool) "data" true ok;
  Alcotest.(check int) "no stalls" 0 stalls;
  Alcotest.(check (float 1.)) "same latency as uncredited" unthrottled lat

let test_tight_window_throttles () =
  (* One burst is 4 pages = ~342 cells; a 400-cell window forces the
     sender to wait for returns between bursts. *)
  let unthrottled, _, _, _ = one_way 61440 in
  let lat, ok, stalls, credits = one_way ~credit_cells:400 61440 in
  Alcotest.(check bool) "data still correct" true ok;
  Alcotest.(check bool) "stalled at least once" true (stalls > 0);
  Alcotest.(check bool) "slower than uncredited" true (lat > unthrottled +. 50.);
  (* All credits eventually return. *)
  Alcotest.(check (option int)) "window restored" (Some 400) credits

let test_window_smaller_than_burst_rejected () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (one_way ~credit_cells:10 61440);
       false
     with Invalid_argument _ -> true)

let test_throttled_throughput_bound () =
  (* With window W cells and round-trip credit delay, steady-state
     throughput is bounded by W cells per credit round trip; check the
     throttled transfer is substantially below line rate but that the
     pipe still drains completely. *)
  let lat400, ok, _, _ = one_way ~credit_cells:400 61440 in
  let lat800, ok2, _, _ = one_way ~credit_cells:800 61440 in
  Alcotest.(check bool) "data 400" true ok;
  Alcotest.(check bool) "data 800" true ok2;
  Alcotest.(check bool) "bigger window is faster" true (lat800 < lat400)

let test_small_pdu_within_window () =
  (* PDUs smaller than the window flow without stalls. *)
  let lat, ok, stalls, _ = one_way ~credit_cells:400 4096 in
  Alcotest.(check bool) "data" true ok;
  Alcotest.(check int) "no stalls" 0 stalls;
  Alcotest.(check bool) "normal latency" true (lat < 600.)

let test_stalled_vc_does_not_block_others () =
  (* Two VCs share the sending adapter: VC 1 has a tight credit window
     and stalls mid-PDU, VC 2 is uncredited.  The active-set credit
     discipline parks the stalled VC and hands the transmitter to VC 2,
     so VC 2's PDU — queued behind VC 1's — must complete first.  (The
     old global-FIFO transmitter head-of-line blocked: a parked VC 1
     held the transmitter and VC 2 finished only after it.) *)
  let len = 61440 in
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  Simcore.Tracer.enable_counters w.Genie.World.a.Genie.Host.tracer;
  let ea1, eb1 = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let ea2, eb2 = Genie.World.endpoint_pair w ~vc:2 ~mode:Net.Adapter.Early_demux in
  Net.Adapter.set_credit_limit w.Genie.World.a.Genie.Host.adapter ~vc:1 ~cells:400;
  let psize = 4096 in
  let npages = (len + psize - 1) / psize in
  let mk_out seed =
    let sa = Genie.Host.new_space w.Genie.World.a in
    let region = Vm.Address_space.map_region sa ~npages in
    let buf =
      Genie.Buf.make sa
        ~addr:(Vm.Address_space.base_addr region ~page_size:psize) ~len
    in
    Genie.Buf.fill_pattern buf ~seed;
    buf
  in
  let mk_in eb done_at =
    let sb = Genie.Host.new_space w.Genie.World.b in
    let region = Vm.Address_space.map_region sb ~npages in
    let rbuf =
      Genie.Buf.make sb
        ~addr:(Vm.Address_space.base_addr region ~page_size:psize) ~len
    in
    ignore
      (Genie.Endpoint.input eb ~sem:Genie.Semantics.emulated_share
         ~spec:(Genie.Input_path.App_buffer rbuf)
         ~on_complete:(fun r ->
           if not (Genie.Input_path.ok r) then Alcotest.fail "transfer failed";
           done_at := Some (Genie.Host.now_us w.Genie.World.b)));
    rbuf
  in
  let done1 = ref None and done2 = ref None in
  let rbuf1 = mk_in eb1 done1 and rbuf2 = mk_in eb2 done2 in
  let buf1 = mk_out 71 and buf2 = mk_out 72 in
  (* VC 1 (stalling) is queued first; VC 2 rides behind it. *)
  ignore (Genie.Endpoint.output ea1 ~sem:Genie.Semantics.emulated_share ~buf:buf1 ());
  ignore (Genie.Endpoint.output ea2 ~sem:Genie.Semantics.emulated_share ~buf:buf2 ());
  Genie.World.run w;
  let t1 = Option.get !done1 and t2 = Option.get !done2 in
  Alcotest.(check bool) "data vc1" true
    (Bytes.equal (Genie.Buf.read rbuf1) (Genie.Buf.expected_pattern ~len ~seed:71));
  Alcotest.(check bool) "data vc2" true
    (Bytes.equal (Genie.Buf.read rbuf2) (Genie.Buf.expected_pattern ~len ~seed:72));
  Alcotest.(check bool) "vc1 stalled" true
    (tx_stalls w > 0);
  Alcotest.(check bool) "uncredited vc2 overtakes the stalled vc1" true (t2 < t1)

let suite =
  [
    Alcotest.test_case "uncredited baseline" `Quick test_uncredited_baseline;
    Alcotest.test_case "generous window never stalls" `Quick
      test_generous_window_no_stall;
    Alcotest.test_case "tight window throttles" `Quick test_tight_window_throttles;
    Alcotest.test_case "window < one burst rejected" `Quick
      test_window_smaller_than_burst_rejected;
    Alcotest.test_case "window size orders throughput" `Quick
      test_throttled_throughput_bound;
    Alcotest.test_case "small PDU within window" `Quick test_small_pdu_within_window;
    Alcotest.test_case "stalled VC does not block others" `Quick
      test_stalled_vc_does_not_block_others;
  ]
