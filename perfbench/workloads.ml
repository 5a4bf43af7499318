(* The benchmark's three workloads.

   Every workload runs as one process on one OCaml domain (the benchmark
   never sets [domains]) and is a closed loop in host time: the next
   batch starts when the previous one finishes.  A batch is one entry of
   the workload's catalog -- a fixed set of inputs whose simulated-result
   digest the benchmark ships in [Recorded] -- and the run's seed picks
   the entry it starts from, so every batch of every run is checked
   against a recorded digest, whatever the seed.

   Why each workload exists, and which layer dominates it (shares from
   the traced run, 2-core x86_64 container, OCaml 5.1.1; see
   perfbench/README.md for the measured table):

   - fabric_bulk: [Workload.Fabric.run] on [Workload.Fabric.default]
     (4 ports x 32 circuits, Pareto(1.3) flows of 4 KB-1 MB in 16 KB
     chunks, load 0.7, early demux, the four application-allocated
     semantics) with only [flows] and [seed] changed.  The unit is a
     completed flow; arrivals are open-loop only in simulated time.  It
     is the bulk per-byte path under credit contention: the CRC-32 the
     adapter runs over every PDU on transmit and receive is most of its
     host time and the checker does none, so a net-layer gain shows here
     and a check-layer change must not.
   - paper_probes: a seed-drawn sequence of [Workload.Latency_probe.run]
     calls on [light_spec micron_p166] hosts, each with its semantics
     drawn from all eight, its receive setup from early demux, pooled
     aligned, pooled unaligned and outboard, and its length log-uniform
     in 64 B-60 KB.  The unit is one probe.  The bench suite's figure
     sections run exactly this rig; every probe builds a fresh two-host
     world, so memory construction and the collector dominate, and short
     datagrams expose per-datagram fixed costs.  It is the only workload
     with system-allocated semantics and pooled or outboard input.
   - fuzz_checked: [Check.Fuzzer.run] on [Check.Fuzzer.default_config]
     (all seven regimes, invariants checked every step, 32 MB hosts) with
     only [steps] and [seed] changed.  The unit is a fuzz step.  The
     invariant rescan is most of its host time; it alone drives the
     store, the vm pressure paths, the rings and fully enabled tracers,
     and CRC work is negligible, so incremental checking shows here and a
     net change must not. *)

module Fabric = Workload.Fabric
module Probe = Workload.Latency_probe
module Fuzzer = Check.Fuzzer

type kind = Fabric_bulk | Paper_probes | Fuzz_checked

let all = [ Fabric_bulk; Paper_probes; Fuzz_checked ]

let name = function
  | Fabric_bulk -> "fabric_bulk"
  | Paper_probes -> "paper_probes"
  | Fuzz_checked -> "fuzz_checked"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) all

(* Batch sizes: long enough that per-batch construction stays a small
   part of the batch, short enough that a run averages many batches. *)
let fabric_flows = 2000
let probes_per_batch = 16
let fuzz_steps = 150

let catalog_size = function
  | Fabric_bulk -> 48
  | Paper_probes -> 64
  | Fuzz_checked -> 8

(* Batch [i] of a run visits entry [start + i], wrapping; 37 is coprime
   with every catalog size, so consecutive seeds start far apart. *)
let entry kind ~seed i =
  let n = catalog_size kind in
  ((((seed mod n) * 37) + i) mod n + n) mod n

(* The simulation seed of catalog entry [j]. *)
let entry_seed j = j + 1

let fabric_config ~flows j =
  let seed = entry_seed j in
  { Fabric.default with Fabric.flows; seed }

let fuzz_config ~steps j =
  let seed = entry_seed j in
  { Fuzzer.default_config with Fuzzer.steps; seed }

(* {1 Probe inputs} *)

type rx_setup = Early_demux | Pooled_aligned | Pooled_unaligned | Outboard

let rx_setups = [| Early_demux; Pooled_aligned; Pooled_unaligned; Outboard |]

let rx_setup_name = function
  | Early_demux -> "early demux"
  | Pooled_aligned -> "pooled aligned"
  | Pooled_unaligned -> "pooled unaligned"
  | Outboard -> "outboard"

type probe = { sem : Genie.Semantics.t; setup : rx_setup; len : int }

let min_len = 64
let max_len = 61440
let probe_spec = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166

let draw_probes j =
  let rng = Simcore.Rng.create ~seed:(entry_seed j) in
  let sems = Array.of_list Genie.Semantics.all in
  let lo = log (float_of_int min_len) and hi = log (float_of_int max_len) in
  Array.init probes_per_batch (fun _ ->
      let sem = sems.(Simcore.Rng.int rng ~bound:(Array.length sems)) in
      let setup = rx_setups.(Simcore.Rng.int rng ~bound:(Array.length rx_setups)) in
      let len =
        Float.to_int (Float.round (exp (Simcore.Rng.range_float rng ~lo ~hi)))
      in
      { sem; setup; len = max min_len (min max_len len) })

let probe_config p =
  let mode, recv_offset =
    match p.setup with
    | Early_demux -> (Net.Adapter.Early_demux, 0)
    | Pooled_aligned -> (Net.Adapter.Pooled, Proto.Dgram_header.length)
    | Pooled_unaligned -> (Net.Adapter.Pooled, 0)
    | Outboard -> (Net.Adapter.Outboard, 0)
  in
  {
    (Probe.default ~sem:p.sem ~len:p.len) with
    Probe.mode;
    recv_offset;
    spec = probe_spec;
  }

(* Datagrams one probe moves: a forward and an echo leg per round. *)
let probe_pdus =
  let d = Probe.default ~sem:Genie.Semantics.copy ~len:min_len in
  2 * (d.Probe.warmup + d.Probe.runs)

let run_probe p =
  match Probe.run (probe_config p) with
  | o -> Ok o
  | exception e -> Error (Printexc.to_string e)

(* MD5 over every probe's simulated results, exact to the last bit. *)
let probes_digest outs =
  let b = Buffer.create 1024 in
  Array.iter
    (fun (_, r) ->
      match r with
      | Ok (o : Probe.outcome) ->
        Printf.bprintf b "%h/%h/%h;" o.Probe.one_way_us o.Probe.rtt_us
          o.Probe.cpu_busy_fraction
      | Error e -> Printf.bprintf b "raised %s;" e)
    outs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* {1 Batches} *)

type result =
  | Fabric_out of Fabric.outcome
  | Probes_out of (probe * (Probe.outcome, string) Stdlib.result) array
  | Fuzz_out of Fuzzer.outcome

type batch = {
  entry : int;
  result : result;
  units : int;  (** completed units: flows, probes or fuzz steps *)
  attempted : int;
  failed : int;
  digest : string;
  problems : string list;  (** failed correctness checks *)
}

let fabric_problems (o : Fabric.outcome) =
  List.filter_map
    (fun (ok, what) -> if ok then None else Some ("fabric: " ^ what))
    [
      (o.Fabric.offered = o.Fabric.accepted + o.Fabric.rejected,
       "offered <> accepted + rejected");
      (o.Fabric.completed = o.Fabric.accepted, "completed <> accepted");
      (o.Fabric.crc_failures = 0, "CRC failures");
    ]

let fuzz_problems (o : Fuzzer.outcome) =
  match o.Fuzzer.stop with
  | Fuzzer.Completed -> []
  | Fuzzer.Violations vs ->
    List.map (fun v -> "fuzz: " ^ Check.Invariants.violation_to_string v) vs

let probe_problems outs =
  Array.to_list outs
  |> List.filter_map (fun (p, r) ->
         match r with
         | Ok _ -> None
         | Error e ->
           Some
             (Printf.sprintf "probe %s/%s/%d B raised %s"
                (Genie.Semantics.name p.sem) (rx_setup_name p.setup) p.len e))

(* One batch through the workload's public entry point; [spans] wraps a
   root span around each entry call, [trace] is handed to the fuzzer. *)
let run_batch ?spans ?trace kind j =
  match kind with
  | Fabric_bulk ->
    let o =
      Span.record spans "Workload.Fabric.run" (fun () ->
          Fabric.run (fabric_config ~flows:fabric_flows j))
    in
    {
      entry = j;
      result = Fabric_out o;
      units = o.Fabric.completed;
      attempted = o.Fabric.offered;
      failed = o.Fabric.offered - o.Fabric.completed;
      digest = o.Fabric.digest;
      problems = fabric_problems o;
    }
  | Paper_probes ->
    let outs =
      Array.map
        (fun p ->
          (p, Span.record spans "Workload.Latency_probe.run" (fun () -> run_probe p)))
        (draw_probes j)
    in
    let problems = probe_problems outs in
    {
      entry = j;
      result = Probes_out outs;
      units = Array.length outs - List.length problems;
      attempted = Array.length outs;
      failed = List.length problems;
      digest = probes_digest outs;
      problems;
    }
  | Fuzz_checked ->
    let cfg = fuzz_config ~steps:fuzz_steps j in
    let o =
      Span.record spans "Check.Fuzzer.run" (fun () -> Fuzzer.run ?trace cfg)
    in
    {
      entry = j;
      result = Fuzz_out o;
      units = o.Fuzzer.steps_run;
      attempted = cfg.Fuzzer.steps;
      failed = cfg.Fuzzer.steps - o.Fuzzer.steps_run;
      digest = o.Fuzzer.digest;
      problems = fuzz_problems o;
    }

let recorded = function
  | Fabric_bulk -> Recorded.fabric_bulk
  | Paper_probes -> Recorded.paper_probes
  | Fuzz_checked -> Recorded.fuzz_checked

(* A host speed-up must never move a simulated result: a batch whose
   digest differs from the shipped value fails the run. *)
let digest_problems ~recorded kind b =
  if b.entry >= Array.length recorded then
    [ Printf.sprintf "%s: no recorded digest for entry %d" (name kind) b.entry ]
  else if not (String.equal recorded.(b.entry) b.digest) then
    [
      Printf.sprintf "%s: entry %d digest %s, recorded %s" (name kind) b.entry
        b.digest recorded.(b.entry);
    ]
  else []

(* The one-unit instance of the workload's configuration that [setup_s]
   times: world, pool and input construction every run pays. *)
let setup_unit kind ~seed =
  let j = entry kind ~seed 0 in
  match kind with
  | Fabric_bulk -> fabric_problems (Fabric.run (fabric_config ~flows:1 j))
  | Paper_probes ->
    let p = (draw_probes j).(0) in
    probe_problems [| (p, run_probe p) |]
  | Fuzz_checked -> fuzz_problems (Fuzzer.run (fuzz_config ~steps:1 j))
