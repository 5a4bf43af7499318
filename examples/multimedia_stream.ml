(* A multimedia server workload (one of the paper's motivating
   I/O-intensive applications): stream video frames over the ATM link
   and compare buffering semantics on sustained throughput and the CPU
   headroom left for the application (e.g. decoding).

   The server pushes back-to-back 60 KB "frames"; the client consumes
   them in place.  We report how many frames per second the pipe
   sustains and the CPU busy fraction at the server.

   Run with: dune exec examples/multimedia_stream.exe *)

module As = Vm.Address_space
module Sem = Genie.Semantics

let frame_bytes = 61440
let frames_to_send = 50
let psize = 4096

(* [Error `Again] is transient backpressure: nothing was sent or posted,
   and the caller may retry once memory pressure drains.  The stream
   keeps one frame in flight, far from exhausting memory, so here a
   rejection is a bug. *)
let admitted what = function
  | Ok _ -> ()
  | Error `Again -> failwith (what ^ " rejected: memory pressure")

let stream sem =
  let world = Genie.World.create () in
  let ea, eb = Genie.World.endpoint_pair world ~vc:1 ~mode:Net.Adapter.Early_demux in
  let host_a = world.Genie.World.a in

  (* Server: a ring of 4 frame buffers, like a real media pipeline. *)
  let space_a = Genie.Host.new_space host_a in
  let ring =
    Array.init 4 (fun i ->
        let r = As.map_region space_a ~npages:(frame_bytes / psize) in
        let b =
          Genie.Buf.make space_a ~addr:(As.base_addr r ~page_size:psize)
            ~len:frame_bytes
        in
        Genie.Buf.fill_pattern b ~seed:i;
        b)
  in
  (* Client: one receive buffer, reused. *)
  let space_b = Genie.Host.new_space world.Genie.World.b in
  let rr = As.map_region space_b ~npages:(frame_bytes / psize) in
  let rbuf =
    Genie.Buf.make space_b ~addr:(As.base_addr rr ~page_size:psize) ~len:frame_bytes
  in

  let received = ref 0 in
  let t_start = ref 0. and t_end = ref 0. in
  let rec post_input () =
    admitted "frame input"
      (Genie.Endpoint.input eb ~sem ~spec:(Genie.Input_path.App_buffer rbuf)
         ~on_complete:(fun r ->
           if not (Genie.Input_path.ok r) then failwith "frame dropped";
           incr received;
           if !received < frames_to_send then post_input ()
           else t_end := Genie.Host.now_us world.Genie.World.b))
  in
  let sent = ref 0 in
  let rec send_next () =
    if !sent < frames_to_send then begin
      let buf = ring.(!sent mod 4) in
      incr sent;
      (* Pipelined: the next send is issued when this one's dispose
         completes, like a sender blocking on a full transmit queue. *)
      admitted "frame output"
        (Genie.Endpoint.output ea ~sem ~buf ~on_complete:send_next ())
    end
  in
  post_input ();
  t_start := Genie.Host.now_us host_a;
  Simcore.Cpu.reset_busy host_a.Genie.Host.cpu;
  send_next ();
  Genie.World.run world;

  let elapsed_us = !t_end -. !t_start in
  let fps = float_of_int frames_to_send /. (elapsed_us /. 1e6) in
  let mbps = 8. *. float_of_int (frames_to_send * frame_bytes) /. elapsed_us in
  let busy =
    Simcore.Sim_time.to_us (Simcore.Cpu.busy_time host_a.Genie.Host.cpu) /. elapsed_us
  in
  (fps, mbps, 100. *. busy)

let () =
  Printf.printf "Streaming %d x 60 KB frames over 155 Mbps ATM\n" frames_to_send;
  Printf.printf "%-20s %10s %10s %16s\n" "semantics" "frames/s" "Mbps" "server CPU busy";
  print_endline (String.make 60 '-');
  List.iter
    (fun sem ->
      let fps, mbps, busy = stream sem in
      Printf.printf "%-20s %10.0f %10.0f %15.1f%%\n" (Sem.name sem) fps mbps busy)
    [ Sem.copy; Sem.emulated_copy; Sem.emulated_share ];
  print_newline ();
  print_endline "Copy semantics burns the CPU moving bytes; emulated copy frees";
  print_endline "it for the application while keeping the same API."
