(* Datacenter-scale fan-in flow engine.  See fabric.mli for the model;
   the scaling argument in short:

   - hosts are rates, not state: superposed Poisson sources are Poisson,
     so a port's clients collapse into one arrival process (host ids are
     drawn per flow as data).  Simulated hosts: O(ports).
   - flows are state machines in recycled slots ([Genie.Flow_table]);
     arrivals beyond the circuit pool are rejected, so flow state is
     O(active), never O(offered).
   - endpoints/VCs/buffers are built once per circuit and reused by
     every flow that rides them.
   - latency populations stream into fixed-size histograms
     ([Stats.Streaming_summary]); nothing retains per-flow data.

   All ports share one engine.  Each port draws from its own Rng stream
   split from the root seed, so a port's draws do not depend on how the
   other ports' events interleave with its own. *)

type config = {
  hosts : int;
  ports : int;
  circuits_per_port : int;
  flows : int;
  load : float;
  chunk_bytes : int;
  seed : int;
}

let default =
  {
    hosts = 1024;
    ports = 4;
    circuits_per_port = 32;
    flows = 2000;
    load = 0.7;
    chunk_bytes = 16384;
    seed = 42;
  }

(* Flow sizes: bounded Pareto with tail index [alpha] on
   [size_min, size_max] bytes. *)
let alpha = 1.3
let size_min = 4096.
let size_max = float_of_int (1 lsl 20)

(* Per-VC credit window on the client adapter, in cells. *)
let credit_cells = 512

(* Backoff before retrying an [`Again] output or input. *)
let retry = Simcore.Sim_time.of_us 50.

(* Every port is an OC-3 link between two light Micron P166 hosts. *)
let params = Net.Net_params.oc3
let spec = Experiments.light_spec Machine.Machine_spec.micron_p166

type outcome = {
  offered : int;
  accepted : int;
  rejected : int;
  completed : int;
  retries : int;
  crc_failures : int;
  rx_bytes : int;
  duration_us : float;
  delivered_mbps : float;
  sojourn_us : Stats.Streaming_summary.t;
  active_high_water : int;
  table_capacity : int;
  digest : string;
}

(* One pooled circuit: a credited VC with an endpoint pair and a reused
   buffer on each side.  The [fl_*] fields are the state machine of the
   flow currently riding the circuit (client side); the [rx_*] fields
   are the server's view of it.  [in_sem] is the circuit's
   fixed input-side semantics; the output side varies per flow. *)
type circuit = {
  ci : int;
  ea : Genie.Endpoint.t;
  eb : Genie.Endpoint.t;
  cbuf : Genie.Buf.t;
  rbuf : Genie.Buf.t;
  in_sem : Genie.Semantics.t;
  mutable fl_handle : Genie.Flow_table.handle;
  mutable fl_chunks : int;
  mutable fl_sent : int;
  mutable fl_sem : Genie.Semantics.t;
  mutable rx_expected : int;  (* 0 = no flow open server-side *)
  mutable rx_got : int;
  mutable rx_start : float;
}

type port = {
  a : Genie.Host.t;
  b : Genie.Host.t;
  rng : Simcore.Rng.t;
  circuits : circuit array;
  table : int Genie.Flow_table.t;  (* payload: circuit index *)
  free : int array;  (* stack of free circuit indices *)
  mutable free_top : int;
  quota : int;
  mutable offered : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable retries : int;
  mutable host_sum : int;  (* sum of accepted flows' source-host ids *)
  (* server side *)
  sojourn : Stats.Streaming_summary.t;
  mutable completed : int;
  mutable rx_bytes : int;
  mutable crc_failures : int;
}

let app_sems =
  [|
    Genie.Semantics.copy;
    Genie.Semantics.emulated_copy;
    Genie.Semantics.share;
    Genie.Semantics.emulated_share;
  |]

(* Mean of the bounded Pareto on [lo, hi] with tail index [alpha] — sets
   the arrival rate that realizes the configured utilization. *)
let pareto_mean ~alpha ~lo ~hi =
  if Float.abs (alpha -. 1.) < 1e-9 then
    lo *. hi /. (hi -. lo) *. log (hi /. lo)
  else
    let la = lo ** alpha in
    la
    /. (1. -. ((lo /. hi) ** alpha))
    *. (alpha /. (alpha -. 1.))
    *. ((lo ** (1. -. alpha)) -. (hi ** (1. -. alpha)))

let validate cfg =
  if cfg.ports < 1 then invalid_arg "Fabric.run: ports must be >= 1";
  if cfg.hosts < cfg.ports then invalid_arg "Fabric.run: hosts < ports";
  if cfg.circuits_per_port < 1 then
    invalid_arg "Fabric.run: circuits_per_port must be >= 1";
  if cfg.flows < 1 then invalid_arg "Fabric.run: flows must be >= 1";
  if cfg.load <= 0. then invalid_arg "Fabric.run: load must be positive";
  if cfg.chunk_bytes <= 0 then
    invalid_arg "Fabric.run: chunk_bytes must be positive"

let run cfg =
  validate cfg;
  let engine = Simcore.Engine.create () in
  let root = Simcore.Rng.create ~seed:cfg.seed in
  let prop = params.Net.Net_params.prop_delay in
  (* Payload bytes per us at line rate: 48 payload bytes per cell. *)
  let bytes_per_us = 48000. /. Net.Net_params.cell_time_ns params in
  (* Flows stream as whole chunks, so the wire carries the size rounded
     up to a chunk multiple.  The closed-form Pareto mean undershoots
     that; correct it with a deterministic pre-sample (a scratch Rng
     stream beyond the port ids) so the configured load is the load the
     link actually sees. *)
  let mean_size =
    let exact = pareto_mean ~alpha ~lo:size_min ~hi:size_max in
    let scratch = Simcore.Rng.stream root ~id:cfg.ports in
    let n = 4096 in
    let acc = ref 0. in
    for _ = 1 to n do
      let s = Simcore.Rng.bounded_pareto scratch ~alpha ~lo:size_min ~hi:size_max in
      let chunks = (int_of_float s + cfg.chunk_bytes - 1) / cfg.chunk_bytes in
      acc := !acc +. float_of_int (max 1 chunks * cfg.chunk_bytes)
    done;
    Float.max exact (!acc /. float_of_int n)
  in
  let mean_gap_us = mean_size /. (cfg.load *. bytes_per_us) in
  let make_port i =
    let a = Genie.Host.create engine params spec ~name:(Printf.sprintf "f%d-a" i) in
    let b = Genie.Host.create engine params spec ~name:(Printf.sprintf "f%d-b" i) in
    Net.Adapter.connect a.Genie.Host.adapter b.Genie.Host.adapter;
    let rng = Simcore.Rng.stream root ~id:i in
    let n = cfg.circuits_per_port in
    let mk_circuit ci =
      let vc = ci + 1 in
      let ea = Genie.Endpoint.create a ~vc ~mode:Net.Adapter.Early_demux in
      let eb = Genie.Endpoint.create b ~vc ~mode:Net.Adapter.Early_demux in
      Net.Adapter.set_credit_limit a.Genie.Host.adapter ~vc ~cells:credit_cells;
      let cbuf = Genie.Buf.map (Genie.Host.new_space a) ~len:cfg.chunk_bytes in
      Genie.Buf.fill_pattern cbuf ~seed:((i * 8191) + ci);
      let rbuf = Genie.Buf.map (Genie.Host.new_space b) ~len:cfg.chunk_bytes in
      let in_sem = app_sems.(Simcore.Rng.int rng ~bound:(Array.length app_sems)) in
      {
        ci;
        ea;
        eb;
        cbuf;
        rbuf;
        in_sem;
        fl_handle = 0;
        fl_chunks = 0;
        fl_sent = 0;
        fl_sem = Genie.Semantics.copy;
        rx_expected = 0;
        rx_got = 0;
        rx_start = 0.;
      }
    in
    {
      a;
      b;
      rng;
      circuits = Array.init n mk_circuit;
      table = Genie.Flow_table.create ~initial:n ~dummy:(-1) ();
      free = Array.init n (fun ci -> n - 1 - ci);
      free_top = n;
      quota =
        (cfg.flows / cfg.ports)
        + (if i < cfg.flows mod cfg.ports then 1 else 0);
      offered = 0;
      accepted = 0;
      rejected = 0;
      retries = 0;
      host_sum = 0;
      sojourn = Stats.Streaming_summary.create ();
      completed = 0;
      rx_bytes = 0;
      crc_failures = 0;
    }
  in
  let ports = Array.init cfg.ports make_port in
  (* Server side: one input per circuit is always posted; each
     completion counts a chunk of the open flow, and the last chunk
     records the sojourn and sends the recycle back to the client. *)
  let serve p c =
    let rec post () =
      match
        Genie.Endpoint.input c.eb ~sem:c.in_sem
          ~spec:(Genie.Input_path.App_buffer c.rbuf)
          ~on_complete:(fun r ->
            if Genie.Input_path.ok r then
              p.rx_bytes <- p.rx_bytes + r.Genie.Input_path.payload_len
            else p.crc_failures <- p.crc_failures + 1;
            c.rx_got <- c.rx_got + 1;
            post ();
            if c.rx_expected > 0 && c.rx_got >= c.rx_expected then begin
              p.completed <- p.completed + 1;
              Stats.Streaming_summary.add p.sojourn
                (Genie.Host.now_us p.b -. c.rx_start);
              c.rx_expected <- 0;
              (* Teardown travels back one propagation delay; only then
                 is the circuit free for the next flow. *)
              Simcore.Engine.schedule engine ~delay:prop (fun () ->
                  let freed = Genie.Flow_table.free p.table c.fl_handle in
                  assert freed;
                  p.free.(p.free_top) <- c.ci;
                  p.free_top <- p.free_top + 1)
            end)
      with
      | Ok _ -> ()
      | Error `Again ->
        (* Backpressure, as in [send_chunk]: re-post after the backoff. *)
        p.retries <- p.retries + 1;
        Simcore.Engine.schedule engine ~delay:retry post
    in
    post ()
  in
  (* Client side: stream the flow's chunks, each submitted when the
     previous one's dispose retires (the circuit buffer is reused, so a
     chunk may not be overwritten while the adapter can still read it).
     [`Again] is frame-exhaustion backpressure: retry after a fixed
     backoff. *)
  let rec send_chunk p c =
    match
      Genie.Endpoint.output c.ea ~sem:c.fl_sem ~buf:c.cbuf
        ~on_complete:(fun () ->
          c.fl_sent <- c.fl_sent + 1;
          if c.fl_sent < c.fl_chunks then send_chunk p c)
        ()
    with
    | Ok _ -> ()
    | Error `Again ->
      p.retries <- p.retries + 1;
      Simcore.Engine.schedule engine ~delay:retry (fun () -> send_chunk p c)
  in
  let open_flow p c ~chunks =
    c.fl_handle <- Genie.Flow_table.alloc p.table c.ci;
    c.fl_chunks <- chunks;
    c.fl_sent <- 0;
    c.fl_sem <- app_sems.(Simcore.Rng.int p.rng ~bound:(Array.length app_sems));
    let start = Genie.Host.now_us p.a in
    (* Flow-open metadata reaches the server one propagation delay ahead
       of the first chunk (which also pays serialization). *)
    Simcore.Engine.schedule engine ~delay:prop (fun () ->
        c.rx_expected <- chunks;
        c.rx_got <- 0;
        c.rx_start <- start);
    send_chunk p c
  in
  let drive p =
    let rec arrival () =
      if p.offered < p.quota then begin
        p.offered <- p.offered + 1;
        (* Draws happen unconditionally so the stream's alignment does
           not depend on acceptance. *)
        let size = Simcore.Rng.bounded_pareto p.rng ~alpha ~lo:size_min ~hi:size_max in
        let host = Simcore.Rng.int p.rng ~bound:cfg.hosts in
        let gap = Simcore.Rng.exponential p.rng ~mean:mean_gap_us in
        let chunks =
          max 1
            ((int_of_float size + cfg.chunk_bytes - 1) / cfg.chunk_bytes)
        in
        if p.free_top > 0 then begin
          p.free_top <- p.free_top - 1;
          let c = p.circuits.(p.free.(p.free_top)) in
          p.accepted <- p.accepted + 1;
          p.host_sum <- p.host_sum + host;
          open_flow p c ~chunks
        end
        else p.rejected <- p.rejected + 1;
        Simcore.Engine.schedule engine
          ~delay:(Simcore.Sim_time.of_us (Float.max 0.05 gap))
          arrival
      end
    in
    arrival ()
  in
  Array.iter (fun p -> Array.iter (fun c -> serve p c) p.circuits) ports;
  Array.iter drive ports;
  Simcore.Engine.run engine;
  (* Sequential post-run fold, port order fixed. *)
  let offered = ref 0
  and accepted = ref 0
  and rejected = ref 0
  and completed = ref 0
  and retries = ref 0
  and crc_failures = ref 0
  and rx_bytes = ref 0
  and hw = ref 0
  and capacity = ref 0 in
  let sojourn = ref (Stats.Streaming_summary.create ()) in
  let acc = Buffer.create 256 in
  Array.iteri
    (fun i p ->
      offered := !offered + p.offered;
      accepted := !accepted + p.accepted;
      rejected := !rejected + p.rejected;
      completed := !completed + p.completed;
      retries := !retries + p.retries;
      crc_failures := !crc_failures + p.crc_failures;
      rx_bytes := !rx_bytes + p.rx_bytes;
      hw := !hw + Genie.Flow_table.high_water p.table;
      capacity := !capacity + Genie.Flow_table.capacity p.table;
      sojourn := Stats.Streaming_summary.merge !sojourn p.sojourn;
      Buffer.add_string acc
        (Printf.sprintf "p%d:o=%d;a=%d;r=%d;rt=%d;c=%d;by=%d;cf=%d;hw=%d;hs=%d;s=%s|"
           i p.offered p.accepted p.rejected p.retries p.completed p.rx_bytes
           p.crc_failures
           (Genie.Flow_table.high_water p.table)
           p.host_sum
           (Stats.Streaming_summary.digest p.sojourn)))
    ports;
  let duration_us = Simcore.Sim_time.to_us (Simcore.Engine.now engine) in
  Buffer.add_string acc
    (Printf.sprintf "t=%d" (Simcore.Sim_time.to_ns (Simcore.Engine.now engine)));
  {
    offered = !offered;
    accepted = !accepted;
    rejected = !rejected;
    completed = !completed;
    retries = !retries;
    crc_failures = !crc_failures;
    rx_bytes = !rx_bytes;
    duration_us;
    delivered_mbps =
      (if duration_us > 0. then 8. *. float_of_int !rx_bytes /. duration_us
       else 0.);
    sojourn_us = !sojourn;
    active_high_water = !hw;
    table_capacity = !capacity;
    digest = Digest.to_hex (Digest.string (Buffer.contents acc));
  }
