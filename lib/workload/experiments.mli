(** One runner per table and figure of the paper's evaluation.

    Each function returns plain data; the benchmark executable renders it
    next to the paper's published numbers (see {!Paper_data}).  Probes run
    on a reduced-memory variant of each Table 5 machine (16 MB simulated
    RAM instead of 32/64 MB) purely to bound allocation; the cost model
    depends on bandwidths and ratings, not memory size. *)

type run = {
  sem : Genie.Semantics.t;
  len : int;
  outcome : Latency_probe.outcome;
}

type series = { label : string; points : (int * float) list }

val page_multiples : int list
(** 4 KB .. 60 KB in page steps (Figures 3, 4, 6, 7). *)

val fig3 : unit -> run list
(** Latency vs size, early demultiplexing. *)

val fig4 : run list -> series list
(** CPU utilization (%) from the Figure 3 runs. *)

val fig5 : unit -> run list
(** Short datagrams, early demultiplexing. *)

val fig6 : unit -> run list
(** Pooled input, application buffers aligned to the unstripped header. *)

val fig7 : unit -> run list
(** Pooled input, page-aligned (hence payload-unaligned) buffers. *)

val latency_series : run list -> series list
val throughput_60k : run list -> (string * float) list

type table7_row = {
  sem_name : string;
  scheme : Genie.Stage_cost.scheme;
  estimated : Stats.Fit.t;
  actual : Stats.Fit.t;
}

val table7 :
  fig3:run list -> fig6:run list -> fig7:run list -> table7_row list

val table6 : unit -> (Machine.Cost_model.op * Stats.Fit.t * int) list
(** Measured per-operation cost fits (op, fit, sample count): the
    charge events of traced probes across semantics and input schemes,
    decoded by {!Genie.Ops.sample}. *)

type table8_side = {
  machine : string;
  memory_ratio : float;
  cache_ratio : float;
  cpu_mult_gm : float;
  cpu_mult_min : float;
  cpu_mult_max : float;
  cpu_fixed_gm : float;
  cpu_fixed_min : float;
  cpu_fixed_max : float;
  est_memory : float;
  est_cache_lo : float;
  est_cache_hi : float;
  est_cpu : float;
}

val geometric_mean : float list -> float
(** Geometric mean of positive ratios, as Table 8 summarizes them.
    Raises [Invalid_argument] on an empty list or a non-positive value. *)

val table8 : unit -> table8_side list
(** Scaling of measured data-passing costs on the Gateway P5-90 and the
    AlphaStation relative to the Micron P166. *)

val oc12 : unit -> (string * float) list
(** Predicted 60 KB single-datagram throughput at OC-12 for copy,
    emulated copy, emulated share and move semantics. *)

val light_spec : Machine.Machine_spec.t -> Machine.Machine_spec.t
