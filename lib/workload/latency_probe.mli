(** The paper's measurement rig: ping-pong datagram exchange between two
    hosts, reporting one-way latency (Figures 3, 5, 6, 7), CPU busy time
    (Figure 4) and single-datagram equivalent throughput (Section 7).

    The receiver preposts its input, echoes each datagram back with the
    same semantics, and preposts the next input before echoing, so the
    forward leg measures exactly prepare + base + dispose as in the
    paper's breakdown model.  Applications with system-allocated
    semantics send the region received in the previous round, exercising
    region caching in steady state.  The first [warmup] rounds are
    discarded (warm caches, populated region caches). *)

type config = {
  mode : Net.Adapter.rx_mode;
  sem : Genie.Semantics.t;
  len : int;
  recv_offset : int;
      (** page offset of application buffers; pooled payload is aligned
          when this equals the datagram header length *)
  runs : int;
  warmup : int;
  params : Net.Net_params.t;
  spec : Machine.Machine_spec.t;
  thresholds : Genie.Thresholds.t option;
  align_input : bool;  (** system input alignment; [false] for ablation *)
}

val default : sem:Genie.Semantics.t -> len:int -> config
(** Early demultiplexing, page-aligned buffers, 5 measured runs after 3
    warmups, OC-3, Micron P166. *)

type outcome = {
  one_way_us : float;  (** mean forward-leg latency *)
  rtt_us : float;
  cpu_busy_fraction : float;
      (** host CPU busy time / elapsed during the measured rounds,
          excluding background activity (see {!Cpu_monitor}) *)
  throughput_mbps : float;  (** single-datagram equivalent, 8 len / latency *)
  rounds : int;
}

val run : ?trace:Simcore.Tracer.t -> config -> outcome
(** Execute the ping-pong.  [trace] is installed on both hosts (see
    {!Genie.World.create}); when it is enabled, every primitive
    operation charged on either host lands in it as a cost sample
    (Table 6, decoded by {!Genie.Ops.sample}).
    @raise Failure if an output or input is rejected with [`Again]. *)
