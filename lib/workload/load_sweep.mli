(** Offered-load saturation experiments (extension of the paper).

    Offers a Poisson stream of datagrams at a configurable rate and
    measures delivered throughput, queueing latency and receiver CPU
    busy fraction.  At OC-12 rates, copy semantics saturates the
    receiving CPU's copy bandwidth below the line rate, while the
    copy-avoiding semantics fill the wire — the queueing-theoretic face
    of the paper's Section 8 extrapolation. *)

type outcome = {
  offered_mbps : float;
  delivered_mbps : float;
  mean_latency_us : float;  (** submit-to-complete, including queueing *)
  max_latency_us : float;
  receiver_busy_fraction : float;
  rejected : int;  (** outputs refused with [`Again] (frame exhaustion) *)
}

val run : sem:Genie.Semantics.t -> offered_mbps:float -> outcome
(** Offer 60 datagrams of 60 KB at [offered_mbps] (Poisson arrivals,
    seed 42) over OC-12 between two light Micron P166 hosts, under
    [sem], which must be application-allocated. *)

(** {1 Fabric load sweeps}

    Closed-loop driving of the {!Fabric} fan-in engine: each probe is a
    full deterministic fabric run, and the sweep reads sojourn
    percentiles off the streaming summaries to decide (or report) the
    next offered load. *)

type fabric_point = {
  load : float;  (** offered utilization of each port link *)
  delivered_mbps : float;
  rejected_frac : float;  (** arrivals refused at the circuit pool *)
  p50_us : float;
  p99_us : float;
  p999_us : float;  (** sojourn percentiles; [nan] when none completed *)
}

val fabric_curve : Fabric.config -> loads:float array -> fabric_point array
(** Offered-load vs latency/throughput curve: one fabric run per grid
    point ([cfg.load] is overridden by each entry of [loads]). *)

val fabric_knee :
  ?iters:int ->
  Fabric.config ->
  p99_limit_us:float ->
  lo:float ->
  hi:float ->
  fabric_point * fabric_point list
(** Bisect ([iters] probes, default 6) for the highest load in
    [lo, hi] whose measured p99 sojourn still meets [p99_limit_us] —
    the knee of the latency curve.  Returns the best admissible point
    (the [lo] endpoint if even it violates the limit) and every probe
    made, in probe order. *)
