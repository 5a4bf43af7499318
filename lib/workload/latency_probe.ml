type config = {
  mode : Net.Adapter.rx_mode;
  sem : Genie.Semantics.t;
  len : int;
  recv_offset : int;
  runs : int;
  warmup : int;
  params : Net.Net_params.t;
  spec : Machine.Machine_spec.t;
  thresholds : Genie.Thresholds.t option;
  align_input : bool;
}

let default ~sem ~len =
  {
    mode = Net.Adapter.Early_demux;
    sem;
    len;
    recv_offset = 0;
    runs = 5;
    warmup = 3;
    params = Net.Net_params.oc3;
    spec = Machine.Machine_spec.micron_p166;
    thresholds = None;
    align_input = true;
  }

type outcome = {
  one_way_us : float;
  rtt_us : float;
  cpu_busy_fraction : float;
  throughput_mbps : float;
  rounds : int;
}

(* Per-host side of the ping-pong. *)
type side = {
  ep : Genie.Endpoint.t;
  space : Vm.Address_space.t;
  mutable next_send : Genie.Buf.t;  (* buffer for this side's next output *)
  recv_spec : unit -> Genie.Input_path.spec;
}

let make_side cfg (host : Genie.Host.t) ep =
  let space = Genie.Host.new_space host in
  if Genie.Semantics.system_allocated cfg.sem then begin
    let buf = Genie.Buf.map ~state:Vm.Region.Moved_in space ~len:cfg.len in
    {
      ep;
      space;
      next_send = buf;
      recv_spec = (fun () -> Genie.Input_path.Sys_alloc { space; len = cfg.len });
    }
  end
  else begin
    let app_buf () = Genie.Buf.map ~offset:cfg.recv_offset space ~len:cfg.len in
    let send_buf = app_buf () and recv_buf = app_buf () in
    {
      ep;
      space;
      next_send = send_buf;
      recv_spec = (fun () -> Genie.Input_path.App_buffer recv_buf);
    }
  end

let send side ~sem ~buf =
  match Genie.Endpoint.output side.ep ~sem ~buf () with
  | Ok _ -> ()
  | Error `Again -> failwith "Latency_probe: output rejected"

let post_input side ~sem ~on_complete =
  match
    Genie.Endpoint.input side.ep ~sem ~spec:(side.recv_spec ()) ~on_complete
  with
  | Ok _ -> ()
  | Error `Again -> failwith "Latency_probe: input rejected"

let mean sum n = if n = 0 then 0. else sum /. float_of_int n

let run ?trace cfg =
  if cfg.runs <= 0 then invalid_arg "Latency_probe.run: runs must be positive";
  let world =
    Genie.World.create ~params:cfg.params ~spec_a:cfg.spec ~spec_b:cfg.spec
      ?thresholds:cfg.thresholds ?trace ()
  in
  let a_host = world.Genie.World.a and b_host = world.Genie.World.b in
  a_host.Genie.Host.align_input <- cfg.align_input;
  b_host.Genie.Host.align_input <- cfg.align_input;
  let ea, eb = Genie.World.endpoint_pair world ~vc:5 ~mode:cfg.mode in
  let a = make_side cfg a_host ea and b = make_side cfg b_host eb in
  Genie.Buf.fill_pattern a.next_send ~seed:7;
  let total_rounds = cfg.warmup + cfg.runs in
  (* Per leg, a float sum and a count: the outcome reads only the mean
     and the round count, and a probe is short enough that a
     [Stats.Streaming_summary]'s bucket arrays would dominate what it
     allocates. *)
  let forward_us = ref 0. and forward_n = ref 0 in
  let rtt_us = ref 0. and rtt_n = ref 0 in
  let round = ref 0 in
  let t_send = ref 0. in
  let meas_start = ref 0. in
  let now () = Genie.Host.now_us a_host in
  let update_send side (r : Genie.Input_path.result) =
    if Genie.Semantics.system_allocated cfg.sem then
      match r.Genie.Input_path.buf with
      | Some buf -> side.next_send <- buf
      | None -> failwith "Latency_probe: system-allocated input failed"
  in
  let rec start_round () =
    if !round < total_rounds then begin
      incr round;
      if !round = cfg.warmup + 1 then begin
        (* Measurement window opens: reset busy accounting. *)
        Simcore.Cpu.reset_busy a_host.Genie.Host.cpu;
        Simcore.Cpu.reset_busy b_host.Genie.Host.cpu;
        meas_start := now ()
      end;
      t_send := now ();
      send a ~sem:cfg.sem ~buf:a.next_send;
      (* Prepost the echo input after the send: its prepare-stage work
         overlaps with the outbound transfer, off the critical path, as
         preposted input does in the paper's breakdown model. *)
      post_input a ~sem:cfg.sem ~on_complete:on_a_recv
    end
  and on_b_recv (r : Genie.Input_path.result) =
    if not (Genie.Input_path.ok r) then failwith "Latency_probe: corrupt forward leg";
    if !round > cfg.warmup then begin
      forward_us := !forward_us +. (now () -. !t_send);
      incr forward_n
    end;
    update_send b r;
    let echo =
      match r.Genie.Input_path.buf with
      | Some buf -> buf
      | None -> assert false
    in
    send b ~sem:cfg.sem ~buf:echo;
    (* Prepost the next round's input; A's next send is a round trip
       away, so this overlaps harmlessly with the echo transfer. *)
    if !round < total_rounds then post_input b ~sem:cfg.sem ~on_complete:on_b_recv
  and on_a_recv (r : Genie.Input_path.result) =
    if not (Genie.Input_path.ok r) then failwith "Latency_probe: corrupt echo leg";
    if !round > cfg.warmup then begin
      rtt_us := !rtt_us +. (now () -. !t_send);
      incr rtt_n
    end;
    update_send a r;
    start_round ()
  in
  post_input b ~sem:cfg.sem ~on_complete:on_b_recv;
  start_round ();
  Genie.World.run world;
  let elapsed = now () -. !meas_start in
  let busy = Simcore.Sim_time.to_us (Simcore.Cpu.busy_time a_host.Genie.Host.cpu) in
  let one_way_us = mean !forward_us !forward_n in
  {
    one_way_us;
    rtt_us = mean !rtt_us !rtt_n;
    cpu_busy_fraction = (if elapsed > 0. then busy /. elapsed else 0.);
    throughput_mbps = 8. *. float_of_int cfg.len /. one_way_us;
    rounds = !forward_n;
  }
