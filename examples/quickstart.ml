(* Quickstart: two hosts on a simulated 155 Mbps ATM link exchange one
   datagram with emulated copy semantics — the drop-in replacement for
   Unix copy semantics that the paper recommends.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A world is two Micron P166-class hosts connected back to back. *)
  let world = Genie.World.create () in
  let sender_ep, receiver_ep =
    Genie.World.endpoint_pair world ~vc:1 ~mode:Net.Adapter.Early_demux
  in

  (* The sender's application buffer: an ordinary (unmovable) region. *)
  let page = Genie.Host.page_size world.Genie.World.a in
  let sender_space = Genie.Host.new_space world.Genie.World.a in
  let region = Vm.Address_space.map_region sender_space ~npages:4 in
  let message = Bytes.of_string "Hello from Genie: copy semantics without the copies!" in
  let send_buf =
    Genie.Buf.make sender_space
      ~addr:(Vm.Address_space.base_addr region ~page_size:page)
      ~len:(Bytes.length message)
  in
  Genie.Buf.write send_buf message;

  (* The receiver posts its own buffer (application-allocated API). *)
  let receiver_space = Genie.Host.new_space world.Genie.World.b in
  let rregion = Vm.Address_space.map_region receiver_space ~npages:4 in
  let recv_buf =
    Genie.Buf.make receiver_space
      ~addr:(Vm.Address_space.base_addr rregion ~page_size:page)
      ~len:(Bytes.length message)
  in

  let t_send = ref 0. in
  (match
     Genie.Endpoint.input receiver_ep ~sem:Genie.Semantics.emulated_copy
       ~spec:(Genie.Input_path.App_buffer recv_buf)
       ~on_complete:(fun result ->
         let now = Genie.Host.now_us world.Genie.World.b in
         Printf.printf "received %d bytes after %.1f usec (ok=%b, seq=%d)\n"
           result.Genie.Input_path.payload_len (now -. !t_send)
           (Genie.Input_path.ok result) result.Genie.Input_path.seq;
         match result.Genie.Input_path.buf with
         | Some b -> Printf.printf "payload: %s\n" (Bytes.to_string (Genie.Buf.read b))
         | None -> print_endline "no data")
   with
  | Ok _ -> ()
  | Error `Again -> print_endline "input rejected: memory pressure");

  t_send := Genie.Host.now_us world.Genie.World.a;
  (match
     Genie.Endpoint.output sender_ep ~sem:Genie.Semantics.emulated_copy
       ~buf:send_buf ()
   with
  | Ok outcome ->
    Printf.printf "output invoked with %s semantics (used: %s)\n"
      (Genie.Semantics.name Genie.Semantics.emulated_copy)
      (Genie.Semantics.name outcome.Genie.Output_path.semantics_used)
  | Error `Again -> print_endline "output rejected: memory pressure");

  (* Drive the simulation to completion. *)
  Genie.World.run world;

  (* The same API at a size where TCOW and page swapping kick in. *)
  print_newline ();
  let big = 61440 in
  let cfg = Workload.Latency_probe.default ~sem:Genie.Semantics.emulated_copy ~len:big in
  let o = Workload.Latency_probe.run cfg in
  Printf.printf
    "60 KB datagrams with emulated copy: %.0f usec one-way, %.0f Mbps\n"
    o.Workload.Latency_probe.one_way_us o.Workload.Latency_probe.throughput_mbps;
  let cfg_copy = Workload.Latency_probe.default ~sem:Genie.Semantics.copy ~len:big in
  let oc = Workload.Latency_probe.run cfg_copy in
  Printf.printf
    "            with plain copy:        %.0f usec one-way, %.0f Mbps\n"
    oc.Workload.Latency_probe.one_way_us oc.Workload.Latency_probe.throughput_mbps;
  Printf.printf "same API, same integrity, %.0f%% lower latency.\n"
    (100.
    *. (oc.Workload.Latency_probe.one_way_us -. o.Workload.Latency_probe.one_way_us)
    /. oc.Workload.Latency_probe.one_way_us)
