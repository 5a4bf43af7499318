(* Offered-load experiments (an extension of the paper's analysis).

   The paper reports per-datagram CPU utilization (Figure 4) and
   extrapolates single-datagram throughput to OC-12 (Section 8).  A
   natural consequence it does not measure is *saturation*: under
   sustained load, copy semantics hits the receiving CPU's copy
   bandwidth before the wire fills, while copy-avoiding semantics run
   the link to capacity.  This module offers a Poisson datagram stream
   at a configurable rate and measures delivered throughput and queueing
   latency, making that consequence observable. *)

(* 60 datagrams of 60 KB over OC-12 between light Micron P166 hosts,
   Poisson arrivals from seed 42. *)
let len = 61440
let datagrams = 60
let params = Net.Net_params.oc12
let spec = Experiments.light_spec Machine.Machine_spec.micron_p166
let seed = 42

type outcome = {
  offered_mbps : float;
  delivered_mbps : float;
  mean_latency_us : float;
  max_latency_us : float;
  receiver_busy_fraction : float;
  rejected : int;
}

(* {1 Fabric load sweeps}

   The closed-loop face of the fabric engine: run the fan-in scenario
   across a grid of offered loads and read the latency/throughput
   curves off the streaming summaries; or let the sweep steer itself —
   bisect on the measured p99 to find the knee, the highest load whose
   tail latency still meets a target.  Each probe is a full
   deterministic {!Fabric.run}; the sweep's control loop feeds measured
   output back into the next offered load, which is what makes it
   closed-loop. *)

type fabric_point = {
  load : float;
  delivered_mbps : float;
  rejected_frac : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

let fabric_point_of (cfg : Fabric.config) (o : Fabric.outcome) =
  let q p =
    if Stats.Streaming_summary.is_empty o.Fabric.sojourn_us then nan
    else Stats.Streaming_summary.quantile o.Fabric.sojourn_us p
  in
  {
    load = cfg.Fabric.load;
    delivered_mbps = o.Fabric.delivered_mbps;
    rejected_frac =
      (if o.Fabric.offered = 0 then 0.
       else float_of_int o.Fabric.rejected /. float_of_int o.Fabric.offered);
    p50_us = q 0.5;
    p99_us = q 0.99;
    p999_us = q 0.999;
  }

let fabric_curve cfg ~loads =
  Array.map
    (fun load ->
      let o = Fabric.run { cfg with Fabric.load } in
      fabric_point_of { cfg with Fabric.load } o)
    loads

let fabric_knee ?(iters = 6) cfg ~p99_limit_us ~lo ~hi =
  if not (lo > 0. && hi > lo) then
    invalid_arg "Load_sweep.fabric_knee: need 0 < lo < hi";
  let probe load = fabric_point_of { cfg with Fabric.load }
      (Fabric.run { cfg with Fabric.load })
  in
  let ok p = Float.is_nan p.p99_us || p.p99_us <= p99_limit_us in
  let plo = probe lo in
  if not (ok plo) then (plo, [ plo ])
  else begin
    let phi = probe hi in
    if ok phi then (phi, [ plo; phi ])
    else begin
      (* Invariant: [best] meets the limit, [bad] does not. *)
      let rec bisect best bad lo hi n history =
        if n = 0 then (best, List.rev history)
        else begin
          let mid = (lo +. hi) /. 2. in
          let p = probe mid in
          if ok p then bisect p bad mid hi (n - 1) (p :: history)
          else bisect best p lo mid (n - 1) (p :: history)
        end
      in
      bisect plo phi lo hi iters [ phi; plo ]
    end
  end

let run ~sem ~offered_mbps =
  if Genie.Semantics.system_allocated sem then
    invalid_arg "Load_sweep.run: application-allocated semantics only";
  let world = Genie.World.create ~params ~spec_a:spec ~spec_b:spec () in
  let ea, eb = Genie.World.endpoint_pair world ~vc:2 ~mode:Net.Adapter.Early_demux in
  let a = world.Genie.World.a and b = world.Genie.World.b in
  let make_bufs host n =
    Array.init n (fun _ -> Genie.Buf.map (Genie.Host.new_space host) ~len)
  in
  (* A ring of send buffers and a ring of preposted receive buffers. *)
  let send_bufs = make_bufs a 4 in
  Array.iteri (fun i buf -> Genie.Buf.fill_pattern buf ~seed:i) send_bufs;
  let recv_bufs = make_bufs b 8 in
  let rng = Simcore.Rng.create ~seed in
  let mean_gap_us = float_of_int (len * 8) /. offered_mbps (* bits / (bits/us) *) in
  let submit_times = Queue.create () in
  let latencies = Stats.Streaming_summary.create () in
  let received = ref 0 and bytes = ref 0 in
  let t_first_send = ref nan and t_last_recv = ref nan in
  (* Receiver: keep all buffers preposted, reposting on completion. *)
  let rec post_input i =
    match
      Genie.Endpoint.input eb ~sem
        ~spec:(Genie.Input_path.App_buffer recv_bufs.(i))
        ~on_complete:(fun r ->
          if Genie.Input_path.ok r then begin
            incr received;
            bytes := !bytes + r.Genie.Input_path.payload_len;
            t_last_recv := Genie.Host.now_us b;
            (match Queue.take_opt submit_times with
            | Some t ->
              Stats.Streaming_summary.add latencies (Genie.Host.now_us b -. t)
            | None -> ());
            if !received + 8 <= datagrams then post_input i
          end
          else post_input i)
    with
    | Ok _ -> ()
    | Error `Again -> failwith "Load_sweep: app-buffer input rejected"
  in
  for i = 0 to Array.length recv_bufs - 1 do
    post_input i
  done;
  (* Sender: Poisson arrivals. *)
  let sent = ref 0 and rejected = ref 0 in
  let rec arrival () =
    if !sent < datagrams then begin
      let now = Genie.Host.now_us a in
      if Float.is_nan !t_first_send then t_first_send := now;
      let buf = send_bufs.(!sent mod Array.length send_bufs) in
      incr sent;
      (* Only an admitted datagram queues its send time: completions pair
         with send times in order. *)
      (match Genie.Endpoint.output ea ~sem ~buf () with
      | Ok _ -> Queue.add now submit_times
      | Error `Again -> incr rejected);
      (* Exponential interarrival. *)
      let u = Float.max 1e-9 (Simcore.Rng.float rng) in
      let gap_us = -.mean_gap_us *. log u in
      Simcore.Engine.schedule world.Genie.World.engine
        ~delay:(Simcore.Sim_time.of_us (Float.max 0.1 gap_us))
        arrival
    end
  in
  Simcore.Cpu.reset_busy b.Genie.Host.cpu;
  arrival ();
  Genie.World.run world;
  let elapsed = !t_last_recv -. !t_first_send in
  {
    offered_mbps;
    delivered_mbps = 8. *. float_of_int !bytes /. elapsed;
    mean_latency_us = Stats.Streaming_summary.mean latencies;
    max_latency_us = Stats.Streaming_summary.max latencies;
    receiver_busy_fraction =
      Simcore.Sim_time.to_us (Simcore.Cpu.busy_time b.Genie.Host.cpu) /. elapsed;
    rejected = !rejected;
  }
