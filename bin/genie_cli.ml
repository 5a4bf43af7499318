(* Command-line driver for single experiments.

   Examples:
     genie_cli latency --sem "emulated copy" --len 61440
     genie_cli sweep --sem copy --mode pooled --offset 16
     genie_cli estimate --sem share --scheme early --len 8192
     genie_cli ops --machine alpha *)

open Cmdliner

let sem_conv =
  let parse s =
    match Genie.Semantics.of_name s with
    | Some sem -> Ok sem
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown semantics %S (one of: %s)" s
             (String.concat ", " (List.map Genie.Semantics.name Genie.Semantics.all))))
  in
  Arg.conv (parse, Genie.Semantics.pp)

let mode_conv =
  let parse = function
    | "early" | "early-demux" -> Ok Net.Adapter.Early_demux
    | "pooled" -> Ok Net.Adapter.Pooled
    | "outboard" -> Ok Net.Adapter.Outboard
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S (early|pooled|outboard)" s))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with
      | Net.Adapter.Early_demux -> "early"
      | Net.Adapter.Pooled -> "pooled"
      | Net.Adapter.Outboard -> "outboard")
  in
  Arg.conv (parse, print)

let machine_conv =
  let parse = function
    | "p166" | "micron" -> Ok Machine.Machine_spec.micron_p166
    | "p90" | "gateway" -> Ok Machine.Machine_spec.gateway_p5_90
    | "alpha" | "alphastation" -> Ok Machine.Machine_spec.alphastation_255
    | s -> Error (`Msg (Printf.sprintf "unknown machine %S (p166|p90|alpha)" s))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt m.Machine.Machine_spec.name)

let sem_arg =
  Arg.(value & opt sem_conv Genie.Semantics.emulated_copy
       & info [ "sem"; "s" ] ~docv:"SEMANTICS" ~doc:"Data-passing semantics.")

let mode_arg =
  Arg.(value & opt mode_conv Net.Adapter.Early_demux
       & info [ "mode"; "m" ] ~docv:"MODE" ~doc:"Device input buffering.")

let len_arg =
  Arg.(value & opt int 61440
       & info [ "len"; "l" ] ~docv:"BYTES" ~doc:"Datagram payload length.")

let offset_arg =
  Arg.(value & opt int 0
       & info [ "offset"; "o" ] ~docv:"BYTES"
           ~doc:"Page offset of application buffers (alignment).")

let oc12_arg =
  Arg.(value & flag & info [ "oc12" ] ~doc:"Use a 622 Mbps (OC-12) link.")

let machine_arg =
  Arg.(value & opt machine_conv Machine.Machine_spec.micron_p166
       & info [ "machine" ] ~docv:"MACHINE" ~doc:"Host machine (p166|p90|alpha).")

let make_config sem mode len offset oc12 machine =
  {
    (Workload.Latency_probe.default ~sem ~len) with
    Workload.Latency_probe.mode;
    recv_offset = offset;
    params = (if oc12 then Net.Net_params.oc12 else Net.Net_params.oc3);
    spec = Workload.Experiments.light_spec machine;
  }

let latency_cmd =
  let run sem mode len offset oc12 machine =
    let o = Workload.Latency_probe.run (make_config sem mode len offset oc12 machine) in
    Printf.printf "%s, %d bytes on %s:\n" (Genie.Semantics.name sem) len
      machine.Machine.Machine_spec.name;
    Printf.printf "  one-way latency : %.1f usec\n" o.Workload.Latency_probe.one_way_us;
    Printf.printf "  round trip      : %.1f usec\n" o.Workload.Latency_probe.rtt_us;
    Printf.printf "  throughput      : %.1f Mbps\n" o.Workload.Latency_probe.throughput_mbps;
    Printf.printf "  CPU utilization : %.1f%% (incl. %.1f%% background)\n"
      (Workload.Cpu_monitor.utilization_pct
         ~busy_fraction:o.Workload.Latency_probe.cpu_busy_fraction)
      (100. *. Workload.Cpu_monitor.background_fraction)
  in
  Cmd.v (Cmd.info "latency" ~doc:"Measure one configuration.")
    Term.(const run $ sem_arg $ mode_arg $ len_arg $ offset_arg $ oc12_arg $ machine_arg)

let sweep_cmd =
  let run sem mode offset oc12 machine =
    Printf.printf "%8s %12s %12s %8s\n" "bytes" "latency(us)" "Mbps" "cpu%";
    List.iter
      (fun len ->
        let o =
          Workload.Latency_probe.run (make_config sem mode len offset oc12 machine)
        in
        Printf.printf "%8d %12.1f %12.1f %8.1f\n" len
          o.Workload.Latency_probe.one_way_us
          o.Workload.Latency_probe.throughput_mbps
          (Workload.Cpu_monitor.utilization_pct
             ~busy_fraction:o.Workload.Latency_probe.cpu_busy_fraction))
      Workload.Experiments.page_multiples
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Sweep datagram sizes for one semantics.")
    Term.(const run $ sem_arg $ mode_arg $ offset_arg $ oc12_arg $ machine_arg)

let estimate_cmd =
  let scheme_conv =
    let parse = function
      | "early" -> Ok Genie.Stage_cost.Early_demux
      | "pooled-aligned" -> Ok Genie.Stage_cost.Pooled_aligned
      | "pooled-unaligned" -> Ok Genie.Stage_cost.Pooled_unaligned
      | s -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
    in
    Arg.conv
      (parse, fun fmt s -> Format.pp_print_string fmt (Genie.Stage_cost.scheme_name s))
  in
  let scheme_arg =
    Arg.(value & opt scheme_conv Genie.Stage_cost.Early_demux
         & info [ "scheme" ] ~docv:"SCHEME"
             ~doc:"early | pooled-aligned | pooled-unaligned")
  in
  let run sem scheme len machine =
    let costs = Machine.Cost_model.create machine in
    Printf.printf
      "breakdown-model estimate: %s, %s, %d bytes -> %.1f usec one-way\n"
      (Genie.Semantics.name sem)
      (Genie.Stage_cost.scheme_name scheme)
      len
      (Genie.Stage_cost.latency_us costs Net.Net_params.oc3 ~scheme ~sem ~len)
  in
  Cmd.v (Cmd.info "estimate" ~doc:"Analytic latency from the breakdown model.")
    Term.(const run $ sem_arg $ scheme_arg $ len_arg $ machine_arg)

let ops_cmd =
  let run machine =
    Format.printf "%a" Machine.Cost_model.pp_op_table (Machine.Cost_model.create machine)
  in
  Cmd.v (Cmd.info "ops" ~doc:"Print the primitive-operation cost table.")
    Term.(const run $ machine_arg)

let taxonomy_cmd =
  let run () =
    Printf.printf
      "The taxonomy of I/O data passing semantics (Figure 1 of the paper)\n\n";
    Printf.printf "%-20s %-12s %-10s %-9s\n" "semantics" "allocation" "integrity"
      "emulated";
    print_endline (String.make 54 '-');
    List.iter
      (fun sem ->
        Printf.printf "%-20s %-12s %-10s %-9b\n" (Genie.Semantics.name sem)
          (match sem.Genie.Semantics.alloc with
          | Genie.Semantics.Application -> "application"
          | Genie.Semantics.System -> "system")
          (match sem.Genie.Semantics.integrity with
          | Genie.Semantics.Strong -> "strong"
          | Genie.Semantics.Weak -> "weak")
          sem.Genie.Semantics.emulated)
      Genie.Semantics.all;
    print_newline ();
    print_endline
      "Emulated copy offers the API and integrity guarantees of copy and can";
    print_endline "replace it transparently (the paper's main conclusion)."
  in
  Cmd.v (Cmd.info "taxonomy" ~doc:"Print the semantics taxonomy.")
    Term.(const run $ const ())

let check_cmd =
  let steps_arg =
    Arg.(value & opt int 2000
         & info [ "steps" ] ~docv:"N" ~doc:"Number of randomized fuzz steps.")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Random seed (reproduces a run exactly).")
  in
  let check_every_arg =
    Arg.(value & opt int 1
         & info [ "check-every" ] ~docv:"N"
             ~doc:"Run the invariant suite every N steps.")
  in
  (* One --no-NAME flag per switchable regime, in the fuzzer's order. *)
  let off_args =
    List.fold_left
      (fun acc (s : Check.Fuzzer.switch) ->
        let set = Arg.(value & flag & info [ "no-" ^ s.name ] ~doc:s.doc) in
        Term.(const (fun offs set -> if set then offs @ [ s ] else offs) $ acc $ set))
      (Term.const []) Check.Fuzzer.switches
  in
  let run steps seed check_every offs =
    let cfg =
      List.fold_left
        (fun cfg (s : Check.Fuzzer.switch) -> s.off cfg)
        { Check.Fuzzer.default_config with steps; seed; check_every }
        offs
    in
    let o = Check.Fuzzer.run cfg in
    Check.Fuzzer.pp_outcome Format.std_formatter o;
    match o.Check.Fuzzer.stop with
    | Check.Fuzzer.Completed -> ()
    | Check.Fuzzer.Violations _ ->
      Printf.printf "reproduce with: genie_cli check --steps %d --seed %d%s%s\n" steps
        seed
        (if check_every <> 1 then Printf.sprintf " --check-every %d" check_every
         else "")
        (String.concat ""
           (List.map (fun (s : Check.Fuzzer.switch) -> " --no-" ^ s.name) offs));
      exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Fuzz the VM/Genie stack with randomized fault schedules and audit \
          kernel-state invariants after every step.")
    Term.(const run $ steps_arg $ seed_arg $ check_every_arg $ off_args)

(* {1 fabric: the datacenter-scale fan-in flow engine} *)

let fabric_cmd =
  let hosts_arg =
    Arg.(value & opt int Workload.Fabric.default.Workload.Fabric.hosts
         & info [ "hosts" ] ~docv:"N"
             ~doc:"Logical client hosts fanning in (rates, not state).")
  in
  let ports_arg =
    Arg.(value & opt int Workload.Fabric.default.Workload.Fabric.ports
         & info [ "ports" ] ~docv:"P"
             ~doc:"Simulated host pairs carrying the fan-in traffic.")
  in
  let circuits_arg =
    Arg.(value & opt int Workload.Fabric.default.Workload.Fabric.circuits_per_port
         & info [ "circuits" ] ~docv:"C"
             ~doc:
               "Pooled circuits (VCs) per port — the active-flow cap; \
                arrivals beyond it are rejected.")
  in
  let flows_arg =
    Arg.(value & opt int Workload.Fabric.default.Workload.Fabric.flows
         & info [ "flows" ] ~docv:"M" ~doc:"Total flows to offer.")
  in
  let load_arg =
    Arg.(value & opt float Workload.Fabric.default.Workload.Fabric.load
         & info [ "load" ] ~docv:"L"
             ~doc:"Offered utilization of each port link (e.g. 0.7).")
  in
  let seed_arg =
    Arg.(value & opt int Workload.Fabric.default.Workload.Fabric.seed
         & info [ "seed" ] ~docv:"SEED" ~doc:"Root random seed.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Write the outcome (or sweep curve) as JSON here.")
  in
  let sweep_arg =
    Arg.(value & opt (some string) None
         & info [ "sweep" ] ~docv:"L1,L2,..."
             ~doc:
               "Run a load sweep over the comma-separated grid instead of \
                a single run; reports one latency/throughput point per \
                load.")
  in
  let knee_arg =
    Arg.(value & opt (some float) None
         & info [ "knee" ] ~docv:"P99_US"
             ~doc:
               "Closed-loop knee search: bisect for the highest load in \
                [0.1, 1.5] whose p99 sojourn stays under P99_US \
                microseconds.")
  in
  let config hosts ports circuits flows load seed =
    { Workload.Fabric.default with
      Workload.Fabric.hosts; ports; circuits_per_port = circuits; flows; load; seed }
  in
  let point_json (p : Workload.Load_sweep.fabric_point) =
    Printf.sprintf
      "{\"load\": %.4f, \"delivered_mbps\": %.3f, \"rejected_frac\": %.4f, \
       \"p50_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": %.3f}"
      p.Workload.Load_sweep.load p.Workload.Load_sweep.delivered_mbps
      p.Workload.Load_sweep.rejected_frac p.Workload.Load_sweep.p50_us
      p.Workload.Load_sweep.p99_us p.Workload.Load_sweep.p999_us
  in
  let print_point (p : Workload.Load_sweep.fabric_point) =
    Printf.printf
      "load %.3f  delivered %8.2f Mbps  rejected %5.1f%%  p50 %9.1f us  \
       p99 %9.1f us  p99.9 %9.1f us\n"
      p.Workload.Load_sweep.load p.Workload.Load_sweep.delivered_mbps
      (100. *. p.Workload.Load_sweep.rejected_frac)
      p.Workload.Load_sweep.p50_us p.Workload.Load_sweep.p99_us
      p.Workload.Load_sweep.p999_us
  in
  let write_out out body =
    match out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc body;
      output_char oc '\n';
      close_out oc;
      Printf.printf "[fabric] wrote %s\n" path
  in
  let run hosts ports circuits flows load seed out sweep knee =
    let cfg = config hosts ports circuits flows load seed in
    match (sweep, knee) with
    | Some grid, _ ->
      let loads =
        grid |> String.split_on_char ',' |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map float_of_string |> Array.of_list
      in
      let points = Workload.Load_sweep.fabric_curve cfg ~loads in
      Array.iter print_point points;
      write_out out
        (Printf.sprintf "[%s]"
           (String.concat ",\n "
              (Array.to_list (Array.map point_json points))))
    | None, Some p99_limit_us ->
      let best, probes =
        Workload.Load_sweep.fabric_knee cfg ~p99_limit_us ~lo:0.1 ~hi:1.5
      in
      List.iter print_point probes;
      Printf.printf "knee: load %.3f (p99 %.1f us <= %.1f us)\n"
        best.Workload.Load_sweep.load best.Workload.Load_sweep.p99_us
        p99_limit_us;
      write_out out
        (Printf.sprintf "{\"knee\": %s,\n \"probes\": [%s]}" (point_json best)
           (String.concat ",\n  " (List.map point_json probes)))
    | None, None ->
      let o = Workload.Fabric.run cfg in
      let q p =
        if Stats.Streaming_summary.is_empty o.Workload.Fabric.sojourn_us then
          nan
        else Stats.Streaming_summary.quantile o.Workload.Fabric.sojourn_us p
      in
      Printf.printf
        "flows: offered %d  accepted %d  rejected %d  completed %d  \
         retries %d\n"
        o.Workload.Fabric.offered o.Workload.Fabric.accepted
        o.Workload.Fabric.rejected o.Workload.Fabric.completed
        o.Workload.Fabric.retries;
      Printf.printf "delivered: %.2f Mbps over %.0f us (%d bytes)\n"
        o.Workload.Fabric.delivered_mbps o.Workload.Fabric.duration_us
        o.Workload.Fabric.rx_bytes;
      Printf.printf "sojourn: p50 %.1f us  p99 %.1f us  p99.9 %.1f us\n"
        (q 0.5) (q 0.99) (q 0.999);
      Printf.printf "active flows: high water %d of %d pooled slots\n"
        o.Workload.Fabric.active_high_water o.Workload.Fabric.table_capacity;
      Printf.printf "fabric digest: %s\n" o.Workload.Fabric.digest;
      write_out out
        (Printf.sprintf
           "{\"offered\": %d, \"accepted\": %d, \"rejected\": %d, \
            \"completed\": %d, \"retries\": %d, \"crc_failures\": %d,\n \
            \"rx_bytes\": %d, \"duration_us\": %.3f, \"delivered_mbps\": \
            %.3f,\n \"p50_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": %.3f,\n \
            \"active_high_water\": %d, \"table_capacity\": %d, \"digest\": \
            \"%s\"}"
           o.Workload.Fabric.offered o.Workload.Fabric.accepted
           o.Workload.Fabric.rejected o.Workload.Fabric.completed
           o.Workload.Fabric.retries o.Workload.Fabric.crc_failures
           o.Workload.Fabric.rx_bytes o.Workload.Fabric.duration_us
           o.Workload.Fabric.delivered_mbps (q 0.5) (q 0.99) (q 0.999)
           o.Workload.Fabric.active_high_water
           o.Workload.Fabric.table_capacity o.Workload.Fabric.digest)
  in
  Cmd.v
    (Cmd.info "fabric"
       ~doc:
         "Run the datacenter-scale fan-in flow engine: heavy-tailed flows \
          over pooled circuits with credit contention, memory bounded by \
          active flows.  Single runs print a deterministic completion \
          digest; --sweep and --knee drive offered-load curves.")
    Term.(
      const run $ hosts_arg $ ports_arg $ circuits_arg $ flows_arg $ load_arg
      $ seed_arg $ out_arg $ sweep_arg $ knee_arg)

(* {1 trace: run a named scenario with tracing on, export Chrome JSON} *)

let trace_cmd =
  let scenario_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"SCENARIO" ~doc:"Named trace scenario to run.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:
               "Write the Chrome trace_event JSON here (load it in \
                Perfetto or chrome://tracing).")
  in
  let list_arg =
    Arg.(value & flag
         & info [ "list" ] ~doc:"List available scenarios and exit.")
  in
  let list_scenarios () =
    List.iter
      (fun s ->
        Printf.printf "%-14s %s\n" s.Workload.Trace_scenarios.name
          s.Workload.Trace_scenarios.descr)
      Workload.Trace_scenarios.all
  in
  let run scenario out list =
    if list then list_scenarios ()
    else
      match scenario with
      | None ->
        Printf.eprintf "missing SCENARIO (try --list)\n";
        exit 2
      | Some name ->
        (match Workload.Trace_scenarios.find name with
        | None ->
          Printf.eprintf "unknown scenario %S (available: %s)\n" name
            (String.concat " "
               (List.map
                  (fun s -> s.Workload.Trace_scenarios.name)
                  Workload.Trace_scenarios.all));
          exit 2
        | Some s ->
          let tracer = s.Workload.Trace_scenarios.run () in
          (match out with
          | Some path ->
            let oc = open_out path in
            output_string oc (Stats.Trace_export.to_chrome_string ~indent:1 tracer);
            output_char oc '\n';
            close_out oc;
            Printf.printf "[trace] %d events -> %s\n"
              (List.length (Simcore.Tracer.typed_events tracer))
              path
          | None -> ());
          print_string (Stats.Trace_export.counter_summary tracer))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a named scenario with kernel-path tracing enabled; print \
          the counter summary and optionally export the Chrome trace.")
    Term.(const run $ scenario_arg $ out_arg $ list_arg)

(* {1 bench: machine-readable benchmark runs and the regression gate} *)

module Sections = Bench_sections.Sections

let bench_run_cmd =
  let out_arg =
    Arg.(value & opt string "."
         & info [ "out"; "o" ] ~docv:"DIR"
             ~doc:"Directory to write BENCH_<section>.json files into.")
  in
  let sections_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"SECTION"
             ~doc:"Benchmark sections to run (default: all).")
  in
  let run out_dir requested =
    let requested =
      match requested with
      | [] -> Sections.names ()
      | args when List.mem "all" args -> Sections.names ()
      | args -> args
    in
    let unknown =
      List.filter (fun n -> not (List.mem n (Sections.names ()))) requested
    in
    if unknown <> [] then begin
      Printf.eprintf "unknown section%s %s (available: %s)\n"
        (if List.length unknown > 1 then "s" else "")
        (String.concat ", " unknown)
        (String.concat " " (Sections.names ()));
      exit 2
    end;
    if not (Sys.file_exists out_dir && Sys.is_directory out_dir) then begin
      Printf.eprintf "output directory %s does not exist\n" out_dir;
      exit 2
    end;
    let failures =
      List.filter_map
        (fun name ->
          match Sections.run_one ~out_dir name with
          | Ok (Some path) ->
            Printf.printf "[bench] wrote %s\n" path;
            None
          | Ok None -> None
          | Error msg ->
            Printf.eprintf "[bench] %s\n" msg;
            Some name)
        requested
    in
    if failures <> [] then begin
      Printf.eprintf "[bench] %d section(s) failed: %s\n" (List.length failures)
        (String.concat ", " failures);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run benchmark sections and write machine-readable \
          BENCH_<section>.json results.")
    Term.(const run $ out_arg $ sections_arg)

let bench_compare_cmd =
  let baseline_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"BASELINE" ~doc:"Baseline BENCH_*.json file or directory.")
  in
  let current_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"CURRENT" ~doc:"Current BENCH_*.json file or directory.")
  in
  (* A baseline file pairs with either the same-named file in the current
     directory or the current path itself; a baseline directory pairs
     every BENCH_*.json it contains. *)
  let gather baseline current =
    if Sys.is_directory baseline then begin
      if not (Sys.file_exists current && Sys.is_directory current) then begin
        Printf.eprintf "baseline is a directory, so current (%s) must be too\n"
          current;
        exit 2
      end;
      Sys.readdir baseline |> Array.to_list |> List.sort String.compare
      |> List.filter (fun f ->
             String.length f > 11
             && String.sub f 0 6 = "BENCH_"
             && Filename.check_suffix f ".json")
      |> List.map (fun f -> (Filename.concat baseline f, Filename.concat current f))
    end
    else if Sys.file_exists current && Sys.is_directory current then
      [ (baseline, Filename.concat current (Filename.basename baseline)) ]
    else [ (baseline, current) ]
  in
  let run baseline current =
    if not (Sys.file_exists baseline) then begin
      Printf.eprintf "baseline %s does not exist\n" baseline;
      exit 2
    end;
    let pairs = gather baseline current in
    if pairs = [] then begin
      Printf.eprintf "no BENCH_*.json files found under %s\n" baseline;
      exit 2
    end;
    let ok =
      List.for_all
        (fun (bpath, cpath) ->
          match Stats.Bench_result.read bpath with
          | Error e ->
            Printf.eprintf "error reading baseline: %s\n" e;
            false
          | Ok b ->
            (match Stats.Bench_result.read cpath with
            | Error e ->
              Printf.eprintf "error reading current: %s\n" e;
              false
            | Ok cur ->
              let report = Stats.Bench_compare.compare ~baseline:b ~current:cur () in
              print_string (Stats.Bench_compare.render report);
              Stats.Bench_compare.passed report))
        pairs
    in
    if ok then print_endline "bench compare: OK"
    else begin
      Printf.eprintf "bench compare: FAILED (drift or missing metric)\n";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Diff current BENCH_*.json results against a baseline; exit \
          non-zero when any metric's value moves by more than 0.1% in \
          either direction, or disappears.")
    Term.(const run $ baseline_arg $ current_arg)

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:
         "Machine-readable benchmark harness: run sections to JSON and \
          gate on any drift of the simulated results.")
    [ bench_run_cmd; bench_compare_cmd ]

let adapt_cmd =
  let regime_arg =
    Arg.(value & opt string "all"
         & info [ "regime" ] ~docv:"NAME"
             ~doc:
               "Which workload to run: one of short, half_page, large, \
                pooled_large, mixed, or \"all\" for the four single-regime \
                convergence checks plus the mixed comparison.")
  in
  let start_index_arg =
    Arg.(value & opt int 0
         & info [ "start-index" ] ~docv:"N"
             ~doc:
               "Pick the N-th non-winning candidate (mod their count) as \
                the adaptive run's deliberately wrong starting semantics — \
                different indices exercise different wrong starts.")
  in
  let run_single ~start_index r =
    let c = Workload.Adaptive_run.converge ~start_index r in
    Printf.printf "regime %-12s (start %s)\n" c.Workload.Adaptive_run.c_regime
      c.Workload.Adaptive_run.c_start;
    List.iter
      (fun (name, us) ->
        Printf.printf "  static   %-19s %10.2f us%s\n" name us
          (if name = c.Workload.Adaptive_run.c_winner then "  <- winner"
           else ""))
      c.Workload.Adaptive_run.c_static_us;
    Printf.printf
      "  adaptive %-19s %10.2f us  (%d epochs, %d migrations, last at %d)\n"
      c.Workload.Adaptive_run.c_final c.Workload.Adaptive_run.c_adaptive_us
      c.Workload.Adaptive_run.c_epochs c.Workload.Adaptive_run.c_migrations
      c.Workload.Adaptive_run.c_last_migration_epoch;
    Printf.printf "  %s\n"
      (if c.Workload.Adaptive_run.c_settled then "settled: OK"
       else "settled: FAILED");
    c.Workload.Adaptive_run.c_settled
  in
  let run_mixed ~start_index r =
    let c = Workload.Adaptive_run.converge ~start_index r in
    let best_static =
      List.fold_left
        (fun acc (_, us) -> min acc us)
        infinity c.Workload.Adaptive_run.c_static_us
    in
    let cap =
      Genie.Adapt.migration_cap r.Workload.Adaptive_run.r_adapt
        ~epochs:c.Workload.Adaptive_run.c_epochs
    in
    Printf.printf "regime %-12s (start %s)\n" c.Workload.Adaptive_run.c_regime
      c.Workload.Adaptive_run.c_start;
    List.iter
      (fun (name, us) -> Printf.printf "  static   %-19s %10.2f us\n" name us)
      c.Workload.Adaptive_run.c_static_us;
    Printf.printf "  adaptive %-19s %10.2f us  (%d migrations, cap %d)\n"
      c.Workload.Adaptive_run.c_final c.Workload.Adaptive_run.c_adaptive_us
      c.Workload.Adaptive_run.c_migrations cap;
    let ok =
      c.Workload.Adaptive_run.c_adaptive_us < best_static
      && c.Workload.Adaptive_run.c_migrations <= cap
    in
    Printf.printf "  %s\n"
      (if ok then "beats every static: OK" else "beats every static: FAILED");
    ok
  in
  let run regime start_index =
    let ok =
      match regime with
      | "all" ->
        let singles =
          List.map (fun r -> run_single ~start_index r) Workload.Adaptive_run.regimes
        in
        let mixed = run_mixed ~start_index Workload.Adaptive_run.mixed_regime in
        List.for_all Fun.id singles && mixed
      | "mixed" -> run_mixed ~start_index Workload.Adaptive_run.mixed_regime
      | name -> (
        match Workload.Adaptive_run.find_regime name with
        | Some r -> run_single ~start_index r
        | None ->
          Printf.eprintf "unknown regime %s\n" name;
          false)
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:
         "Run the online-adaptation convergence check: measure every static \
          semantics on a workload, then verify the per-flow controller \
          discovers the winner from a wrong start and settles on it.")
    Term.(const run $ regime_arg $ start_index_arg)

let () =
  let info =
    Cmd.info "genie_cli" ~version:"1.0"
      ~doc:"Single experiments on the Genie I/O buffering reproduction."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ latency_cmd; sweep_cmd; estimate_cmd; ops_cmd; taxonomy_cmd;
            check_cmd; fabric_cmd; trace_cmd; bench_cmd; adapt_cmd ]))
