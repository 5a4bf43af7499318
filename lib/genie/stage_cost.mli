(** The paper's analytic latency-breakdown model (Tables 2/3/4).

    End-to-end latency is the base latency plus the {e prepare}-time
    data-passing operations at the sender (Table 2) plus, at the
    receiver, the {e dispose}-time operations (Table 3, early
    demultiplexing) or the {e ready}+{e dispose}-time operations
    (Table 4, pooled buffering).  All other stages overlap with network
    and remote-side latencies.

    Lives in [Genie] so online consumers (the adaptive controller) can
    score candidate semantics with the same calibrated tables the
    offline estimates use: the "E" rows of Table 7 and the figure
    baselines in [Workload.Experiments] call this module directly. *)

type scheme = Early_demux | Pooled_aligned | Pooled_unaligned

val scheme_name : scheme -> string

val base_us : Machine.Cost_model.t -> Net.Net_params.t -> len:int -> float
(** Base latency: kernel crossing, adapter fixed costs, wire time of the
    framed PDU, propagation, and interrupt dispatch. *)

val sender_prepare : Machine.Cost_model.t -> Semantics.t -> len:int -> float
(** Sender prepare-time cost of one datagram, Table 2. *)

val receiver_stage :
  Machine.Cost_model.t -> scheme -> Semantics.t -> len:int -> float
(** Receiver-side cost under [scheme]; unaligned pooled applies only to
    application-allocated semantics (system-allocated data never lands
    in the application's buffer, so its alignment cannot matter). *)

val latency_us :
  Machine.Cost_model.t ->
  Net.Net_params.t ->
  scheme:scheme ->
  sem:Semantics.t ->
  len:int ->
  float
(** Estimated one-way latency in microseconds for a datagram of [len]
    payload bytes.  Threshold conversions are not applied (the estimates
    describe the steady large-datagram regime, as in the paper). *)

val mixed_latency_us :
  Machine.Cost_model.t ->
  Net.Net_params.t ->
  scheme:scheme ->
  send_sem:Semantics.t ->
  recv_sem:Semantics.t ->
  len:int ->
  float
(** The breakdown model composed across different sender and receiver
    semantics: base + sender prepare of [send_sem] + receiver stages of
    [recv_sem] (paper Section 8). *)
