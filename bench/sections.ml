(* Benchmark sections: regenerate every table and figure of the paper's
   evaluation section, print them next to the published values, and
   record every measured number into a Stats.Bench_result collector so
   each section also emits a machine-readable BENCH_<section>.json.

   Every metric is measured in simulated time or derived from it, so
   the deterministic simulator reproduces it exactly and `bench compare`
   gates it strictly.  How fast the host runs is perfbench's concern,
   not this registry's. *)

module R = Stats.Bench_result

(* Metric names are dot-separated paths; path components derived from
   human labels ("emulated copy", "early demultiplexing") get their
   spaces flattened. *)
let slug s =
  String.map (function ' ' | '/' | '\\' -> '_' | c -> c) (String.trim s)

let section_header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* {1 Static tables} *)

let table1 _c =
  section_header "Table 1: LAN point-to-point bandwidths";
  let t = Stats.Text_table.create ~header:[ "LAN"; "Year"; "Bandwidth (Mbps)" ] in
  List.iter
    (fun (lan, year, bw) -> Stats.Text_table.add_row t [ lan; string_of_int year; bw ])
    Workload.Paper_data.table1;
  Stats.Text_table.print t

let table5 _c =
  section_header "Table 5: machines used in the experiments";
  List.iter
    (fun spec -> Format.printf "  %a@." Machine.Machine_spec.pp spec)
    Machine.Machine_spec.all

(* {1 Table 6: primitive operation costs} *)

let table6 c =
  section_header "Table 6: costs of primitive data passing operations (usec)";
  Printf.printf
    "Measured: least-squares fit of instrumented op samples (simulated\n\
     Micron P166).  Model: the calibrated cost table (= paper Table 6).\n\n";
  let rows = Workload.Experiments.table6 () in
  let t =
    Stats.Text_table.create
      ~header:[ "operation"; "measured fit"; "model"; "samples"; "r2" ]
  in
  let costs = Machine.Cost_model.create Machine.Machine_spec.micron_p166 in
  List.iter
    (fun (op, fit, n) ->
      let model_mult = Machine.Cost_model.mult_ns_per_byte costs op /. 1000. in
      let model_fixed = Machine.Cost_model.fixed_ns costs op /. 1000. in
      let opname = slug (Machine.Cost_model.op_name op) in
      R.scalar c ~name:(Printf.sprintf "table6.%s.mult_us_per_b" opname)
        ~unit_:"us/B" ~better:R.Neutral fit.Stats.Fit.slope;
      R.scalar c ~name:(Printf.sprintf "table6.%s.fixed_us" opname)
        ~unit_:"us" ~better:R.Neutral fit.Stats.Fit.intercept;
      R.scalar c ~name:(Printf.sprintf "table6.%s.r2" opname)
        ~unit_:"" ~better:R.Higher fit.Stats.Fit.r2;
      Stats.Text_table.add_row t
        [
          Machine.Cost_model.op_name op;
          Format.asprintf "%a" Stats.Fit.pp fit;
          Printf.sprintf "%.6g B + %.0f" model_mult model_fixed;
          string_of_int n;
          Printf.sprintf "%.4f" fit.Stats.Fit.r2;
        ])
    rows;
  Stats.Text_table.print t

(* {1 Figures} *)

let record_latency_series c ~prefix series =
  List.iter
    (fun s ->
      let sem = slug s.Workload.Experiments.label in
      List.iter
        (fun (len, us) ->
          R.scalar c
            ~name:(Printf.sprintf "%s.%s.%dB.one_way_us" prefix sem len)
            ~unit_:"us" us)
        s.Workload.Experiments.points)
    series

let print_latency_figure c ~prefix title runs ~paper_throughput =
  section_header title;
  let series = Workload.Experiments.latency_series runs in
  record_latency_series c ~prefix series;
  let lens =
    match series with
    | { Workload.Experiments.points; _ } :: _ -> List.map fst points
    | [] -> []
  in
  let t =
    Stats.Text_table.create
      ~header:("bytes" :: List.map (fun s -> s.Workload.Experiments.label) series)
  in
  List.iter
    (fun len ->
      Stats.Text_table.add_row t
        (string_of_int len
        :: List.map
             (fun s ->
               Printf.sprintf "%.0f" (List.assoc len s.Workload.Experiments.points))
             series))
    lens;
  Stats.Text_table.print t;
  Printf.printf "(one-way latency, usec)\n";
  match Workload.Experiments.throughput_60k runs with
  | [] -> ()
  | tputs ->
    Printf.printf "\nEquivalent throughput for single 60 KB datagrams (Mbps):\n";
    let t = Stats.Text_table.create ~header:[ "semantics"; "measured"; "paper" ] in
    List.iter
      (fun (name, tput) ->
        R.scalar c
          ~name:(Printf.sprintf "%s.%s.throughput_60KB_mbps" prefix (slug name))
          ~unit_:"Mbps" ~better:R.Higher tput;
        Stats.Text_table.add_row t
          [
            name;
            Printf.sprintf "%.0f" tput;
            (match List.assoc_opt name paper_throughput with
            | Some v -> Printf.sprintf "%.0f" v
            | None -> "-");
          ])
      tputs;
    Stats.Text_table.print t

let chart_of_runs runs =
  let series =
    List.map
      (fun s ->
        ( s.Workload.Experiments.label,
          List.map
            (fun (x, y) -> (float_of_int x, y))
            s.Workload.Experiments.points ))
      (Workload.Experiments.latency_series runs)
  in
  print_newline ();
  print_string
    (Stats.Ascii_chart.render ~x_label:"bytes" ~y_label:"one-way latency (usec)"
       series)

let fig3_runs = lazy (Workload.Experiments.fig3 ())

let fig3 c =
  print_latency_figure c ~prefix:"fig3"
    "Figure 3: end-to-end latency with early demultiplexing"
    (Lazy.force fig3_runs)
    ~paper_throughput:Workload.Paper_data.throughput_60k_early;
  chart_of_runs (Lazy.force fig3_runs)

let fig4 c =
  section_header "Figure 4: CPU utilization (%)";
  let series = Workload.Experiments.fig4 (Lazy.force fig3_runs) in
  List.iter
    (fun s ->
      let sem = slug s.Workload.Experiments.label in
      List.iter
        (fun (len, pct) ->
          R.scalar c
            ~name:(Printf.sprintf "fig4.%s.%dB.cpu_util_pct" sem len)
            ~unit_:"%" pct)
        s.Workload.Experiments.points)
    series;
  let lens =
    match series with
    | { Workload.Experiments.points; _ } :: _ -> List.map fst points
    | [] -> []
  in
  let t =
    Stats.Text_table.create
      ~header:("bytes" :: List.map (fun s -> s.Workload.Experiments.label) series)
  in
  List.iter
    (fun len ->
      Stats.Text_table.add_row t
        (string_of_int len
        :: List.map
             (fun s ->
               Printf.sprintf "%.1f" (List.assoc len s.Workload.Experiments.points))
             series))
    lens;
  Stats.Text_table.print t;
  Printf.printf "\nAt 60 KB, against the paper's Figure 4:\n";
  let t = Stats.Text_table.create ~header:[ "semantics"; "measured"; "paper" ] in
  List.iter
    (fun s ->
      match List.assoc_opt 61440 s.Workload.Experiments.points with
      | Some v ->
        Stats.Text_table.add_row t
          [
            s.Workload.Experiments.label;
            Printf.sprintf "%.1f%%" v;
            (match
               List.assoc_opt s.Workload.Experiments.label
                 Workload.Paper_data.cpu_util_60k
             with
            | Some p -> Printf.sprintf "%.0f%%" p
            | None -> "-");
          ]
      | None -> ())
    series;
  Stats.Text_table.print t

let fig5_runs = lazy (Workload.Experiments.fig5 ())

let fig5 c =
  print_latency_figure c ~prefix:"fig5"
    "Figure 5: end-to-end latency for short datagrams (early demultiplexing)"
    (Lazy.force fig5_runs)
    ~paper_throughput:[];
  chart_of_runs (Lazy.force fig5_runs);
  Printf.printf
    "\nPaper checkpoints: copy floor %.0f usec; at half a page emulated\n\
     copy %.0f vs emulated share %.0f usec.\n"
    Workload.Paper_data.fig5_copy_floor_us
    Workload.Paper_data.fig5_half_page.Workload.Paper_data.emulated_copy_us
    Workload.Paper_data.fig5_half_page.Workload.Paper_data.emulated_share_us

let fig6_runs = lazy (Workload.Experiments.fig6 ())
let fig7_runs = lazy (Workload.Experiments.fig7 ())

let fig6 c =
  print_latency_figure c ~prefix:"fig6"
    "Figure 6: latency with application-aligned pooled input buffering"
    (Lazy.force fig6_runs)
    ~paper_throughput:Workload.Paper_data.throughput_60k_pooled_aligned

let fig7 c =
  print_latency_figure c ~prefix:"fig7"
    "Figure 7: latency with unaligned pooled input buffering"
    (Lazy.force fig7_runs)
    ~paper_throughput:Workload.Paper_data.throughput_60k_pooled_unaligned

(* {1 Table 7} *)

let table7 c =
  section_header "Table 7: estimated (E) and actual (A) end-to-end latencies";
  let rows =
    Workload.Experiments.table7 ~fig3:(Lazy.force fig3_runs)
      ~fig6:(Lazy.force fig6_runs) ~fig7:(Lazy.force fig7_runs)
  in
  let t =
    Stats.Text_table.create
      ~header:[ "semantics"; "scheme"; ""; "this reproduction"; "paper" ]
  in
  List.iter
    (fun (row : Workload.Experiments.table7_row) ->
      let paper kind =
        match
          Workload.Paper_data.table7_find ~sem:row.Workload.Experiments.sem_name
            ~scheme:row.Workload.Experiments.scheme ~kind
        with
        | Some f ->
          Printf.sprintf "%.4g B + %.0f" f.Workload.Paper_data.mult
            f.Workload.Paper_data.fixed
        | None -> "-"
      in
      let base =
        Printf.sprintf "table7.%s.%s"
          (slug row.Workload.Experiments.sem_name)
          (slug (Genie.Stage_cost.scheme_name row.Workload.Experiments.scheme))
      in
      let record tag (fit : Stats.Fit.t) =
        R.scalar c ~name:(Printf.sprintf "%s.%s.mult_us_per_b" base tag)
          ~unit_:"us/B" ~better:R.Neutral fit.Stats.Fit.slope;
        R.scalar c ~name:(Printf.sprintf "%s.%s.fixed_us" base tag)
          ~unit_:"us" ~better:R.Neutral fit.Stats.Fit.intercept
      in
      record "estimated" row.Workload.Experiments.estimated;
      record "actual" row.Workload.Experiments.actual;
      Stats.Text_table.add_row t
        [
          row.Workload.Experiments.sem_name;
          Genie.Stage_cost.scheme_name row.Workload.Experiments.scheme;
          "E";
          Format.asprintf "%a" Stats.Fit.pp row.Workload.Experiments.estimated;
          paper `Estimated;
        ];
      Stats.Text_table.add_row t
        [
          "";
          "";
          "A";
          Format.asprintf "%a" Stats.Fit.pp row.Workload.Experiments.actual;
          paper `Actual;
        ])
    rows;
  Stats.Text_table.print t

(* {1 Table 8} *)

let table8 c =
  section_header
    "Table 8: scaling of data passing costs relative to the Micron P166";
  let sides = Workload.Experiments.table8 () in
  List.iter
    (fun (s : Workload.Experiments.table8_side) ->
      Printf.printf "\n%s\n" s.Workload.Experiments.machine;
      let base = Printf.sprintf "table8.%s" (slug s.Workload.Experiments.machine) in
      List.iter
        (fun (tag, v) ->
          R.scalar c ~name:(Printf.sprintf "%s.%s" base tag) ~unit_:"ratio"
            ~better:R.Neutral v)
        [
          ("memory_ratio", s.Workload.Experiments.memory_ratio);
          ("cache_ratio", s.Workload.Experiments.cache_ratio);
          ("cpu_mult_gm", s.Workload.Experiments.cpu_mult_gm);
          ("cpu_fixed_gm", s.Workload.Experiments.cpu_fixed_gm);
        ];
      let paper =
        if s.Workload.Experiments.machine = "Gateway P5-90" then
          Workload.Paper_data.table8_gateway
        else Workload.Paper_data.table8_alpha
      in
      let t =
        Stats.Text_table.create
          ~header:
            [ "parameter type"; "estimated"; "measured"; "paper GM [min,max]" ]
      in
      let paper_row name =
        match
          List.find_opt
            (fun (r : Workload.Paper_data.scaling_row) ->
              r.Workload.Paper_data.parameter_type = name)
            paper
        with
        | Some r ->
          Printf.sprintf "%.2f [%.2f, %.2f]" r.Workload.Paper_data.gm
            r.Workload.Paper_data.min_ratio r.Workload.Paper_data.max_ratio
        | None -> "-"
      in
      Stats.Text_table.add_row t
        [
          "memory-dominated";
          Printf.sprintf "%.2f" s.Workload.Experiments.est_memory;
          Printf.sprintf "%.2f" s.Workload.Experiments.memory_ratio;
          paper_row "memory-dominated";
        ];
      Stats.Text_table.add_row t
        [
          "cache-dominated";
          Printf.sprintf "(%.2f, %.2f)" s.Workload.Experiments.est_cache_lo
            s.Workload.Experiments.est_cache_hi;
          Printf.sprintf "%.2f" s.Workload.Experiments.cache_ratio;
          paper_row "cache-dominated";
        ];
      Stats.Text_table.add_row t
        [
          "CPU-dominated mult";
          Printf.sprintf "> %.2f" s.Workload.Experiments.est_cpu;
          Printf.sprintf "%.2f [%.2f, %.2f]" s.Workload.Experiments.cpu_mult_gm
            s.Workload.Experiments.cpu_mult_min s.Workload.Experiments.cpu_mult_max;
          paper_row "CPU-dominated mult";
        ];
      Stats.Text_table.add_row t
        [
          "CPU-dominated fixed";
          Printf.sprintf "> %.2f" s.Workload.Experiments.est_cpu;
          Printf.sprintf "%.2f [%.2f, %.2f]" s.Workload.Experiments.cpu_fixed_gm
            s.Workload.Experiments.cpu_fixed_min s.Workload.Experiments.cpu_fixed_max;
          paper_row "CPU-dominated fixed";
        ];
      Stats.Text_table.print t)
    sides;
  (* Section 8: "We verified (1), (3), and (4) in each platform" — the
     base-latency slope equals the inverse net transmission rate, the
     copyout rate the inverse memory copy bandwidth, and the copyin rate
     falls between the L2 and memory copy bandwidths. *)
  Printf.printf "\nWithin-platform verification of scaling rules (1), (3), (4):\n";
  let t =
    Stats.Text_table.create
      ~header:[ "machine"; "rule"; "model value"; "hardware bound" ]
  in
  List.iter
    (fun spec ->
      let costs = Machine.Cost_model.create spec in
      let base_mult =
        let b1 = Genie.Stage_cost.base_us costs Net.Net_params.oc3 ~len:4096 in
        let b2 = Genie.Stage_cost.base_us costs Net.Net_params.oc3 ~len:61440 in
        (b2 -. b1) /. float_of_int (61440 - 4096)
      in
      Stats.Text_table.add_row t
        [
          spec.Machine.Machine_spec.name;
          "(1) base mult = 1/net rate";
          Printf.sprintf "%.4f us/B" base_mult;
          Printf.sprintf "%.4f us/B (OC-3c cell rate)" (8. /. (149.76 *. 48. /. 53.));
        ];
      let copyout = Machine.Cost_model.mult_ns_per_byte costs Machine.Cost_model.Copyout /. 1000. in
      Stats.Text_table.add_row t
        [
          "";
          "(3) copyout mult = 1/mem bw";
          Printf.sprintf "%.4f us/B" copyout;
          Printf.sprintf "%.4f us/B" (8. /. spec.Machine.Machine_spec.memory_bw_mbps);
        ];
      let copyin = Machine.Cost_model.mult_ns_per_byte costs Machine.Cost_model.Copyin /. 1000. in
      Stats.Text_table.add_row t
        [
          "";
          "(4) copyin between L2 and mem";
          Printf.sprintf "%.4f us/B" copyin;
          Printf.sprintf "[%.4f, %.4f] us/B"
            (8. /. spec.Machine.Machine_spec.l2_bw_mbps)
            (8. /. spec.Machine.Machine_spec.memory_bw_mbps);
        ])
    Machine.Machine_spec.all;
  Stats.Text_table.print t

(* {1 OC-12 extrapolation} *)

let oc12 c =
  section_header "Section 8: 60 KB throughput at OC-12 (622 Mbps), Micron P166";
  let t =
    Stats.Text_table.create ~header:[ "semantics"; "measured"; "paper prediction" ]
  in
  List.iter
    (fun (name, tput) ->
      R.scalar c ~name:(Printf.sprintf "oc12.%s.throughput_mbps" (slug name))
        ~unit_:"Mbps" ~better:R.Higher tput;
      Stats.Text_table.add_row t
        [
          name;
          Printf.sprintf "%.0f Mbps" tput;
          (match List.assoc_opt name Workload.Paper_data.oc12_throughput with
          | Some v -> Printf.sprintf "%.0f Mbps" v
          | None -> "-");
        ])
    (Workload.Experiments.oc12 ());
  Stats.Text_table.print t

(* Section 7's outboard expectation: staging at an outboard buffer adds
   roughly the same latency to every semantics except emulated copy,
   which is handled specially and approaches emulated share. *)
let outboard c =
  section_header "Section 7: outboard buffering (the paper's expectation)";
  let probe mode sem =
    let cfg =
      {
        (Workload.Latency_probe.default ~sem ~len:61440) with
        Workload.Latency_probe.mode;
        spec = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166;
      }
    in
    (Workload.Latency_probe.run cfg).Workload.Latency_probe.one_way_us
  in
  let t =
    Stats.Text_table.create
      ~header:[ "semantics"; "early demux"; "outboard"; "added latency" ]
  in
  let added = ref [] in
  List.iter
    (fun sem ->
      let e = probe Net.Adapter.Early_demux sem in
      let o = probe Net.Adapter.Outboard sem in
      R.scalar c ~name:(Printf.sprintf "outboard.%s.early_demux_us" (slug (Genie.Semantics.name sem)))
        ~unit_:"us" e;
      R.scalar c ~name:(Printf.sprintf "outboard.%s.outboard_us" (slug (Genie.Semantics.name sem)))
        ~unit_:"us" o;
      if not (Genie.Semantics.equal sem Genie.Semantics.emulated_copy) then
        added := (o -. e) :: !added;
      Stats.Text_table.add_row t
        [
          Genie.Semantics.name sem;
          Printf.sprintf "%.0f" e;
          Printf.sprintf "%.0f" o;
          Printf.sprintf "%+.0f" (o -. e);
        ])
    Genie.Semantics.all;
  Stats.Text_table.print t;
  let lo = List.fold_left Float.min infinity !added in
  let hi = List.fold_left Float.max neg_infinity !added in
  Printf.printf
    "(usec at 60 KB; non-emulated-copy semantics all pay %.0f-%.0f usec of\n\
     store-and-forward DMA; emulated copy's direct outboard-to-buffer DMA\n\
     brings it %.0f usec from emulated share)\n"
    lo hi
    (probe Net.Adapter.Outboard Genie.Semantics.emulated_copy
    -. probe Net.Adapter.Outboard Genie.Semantics.emulated_share)

(* Extension experiment: offered-load saturation at OC-12 (the queueing
   consequence of the Section 8 extrapolation). *)
let load c =
  section_header "Extension: offered-load saturation at OC-12 (60 KB datagrams)";
  let t =
    Stats.Text_table.create
      ~header:
        [ "semantics"; "offered"; "delivered"; "mean latency"; "rx CPU busy" ]
  in
  List.iter
    (fun sem ->
      List.iter
        (fun offered ->
          let o =
            Workload.Load_sweep.run
              (Workload.Load_sweep.default ~sem ~offered_mbps:offered)
          in
          let base =
            Printf.sprintf "load.%s.%.0fmbps" (slug (Genie.Semantics.name sem)) offered
          in
          R.scalar c ~name:(base ^ ".delivered_mbps") ~unit_:"Mbps" ~better:R.Higher
            o.Workload.Load_sweep.delivered_mbps;
          R.scalar c ~name:(base ^ ".mean_latency_us") ~unit_:"us"
            o.Workload.Load_sweep.mean_latency_us;
          R.scalar c ~name:(base ^ ".rx_busy_pct") ~unit_:"%"
            (100. *. o.Workload.Load_sweep.receiver_busy_fraction);
          Stats.Text_table.add_row t
            [
              Genie.Semantics.name sem;
              Printf.sprintf "%.0f Mbps" o.Workload.Load_sweep.offered_mbps;
              Printf.sprintf "%.0f Mbps" o.Workload.Load_sweep.delivered_mbps;
              Printf.sprintf "%.1f ms" (o.Workload.Load_sweep.mean_latency_us /. 1000.);
              Printf.sprintf "%.0f%%"
                (100. *. o.Workload.Load_sweep.receiver_busy_fraction);
            ])
        [ 150.; 300.; 450.; 600. ];
      Stats.Text_table.add_rule t)
    [ Genie.Semantics.copy; Genie.Semantics.emulated_copy;
      Genie.Semantics.emulated_share ];
  Stats.Text_table.print t;
  Printf.printf
    "Copy semantics saturates the receiving CPU well below the line rate;\n\
     the copy-avoiding semantics fill the wire with CPU to spare - the\n\
     queueing view of the paper's OC-12 prediction.\n"

(* {1 Section registry} *)

(* Alphabetical by section name, so the known-section listing printed
   on a bad name (and the default run order) is stable as sections are
   added. *)
let all : (string * (R.collector -> unit)) list =
  [
    ("adaptive", Adaptive.run);
    ("ablations", Ablation.run_all); ("degraded_mode", Degraded.run);
    ("fabric_scale", Fabric_scale.run); ("fig3", fig3); ("fig4", fig4);
    ("fig5", fig5); ("fig6", fig6); ("fig7", fig7); ("load", load);
    ("mixed", Mixed.run); ("oc12", oc12); ("outboard", outboard);
    ("related", Related.run_all); ("storage", Storage.run);
    ("table1", table1); ("table5", table5); ("table6", table6);
    ("table7", table7); ("table8", table8);
  ]

let names () = List.map fst all

let timestamp () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

(* Run one section, writing BENCH_<section>.json to [out_dir] if the
   section recorded any metrics.  Exceptions are reported, not
   propagated, so a driver can run every requested section and still
   exit non-zero. *)
let run_one ?(out_dir = ".") name =
  match List.assoc_opt name all with
  | None ->
    Error
      (Printf.sprintf "unknown section %s (known: %s)" name
         (String.concat ", " (names ())))
  | Some f ->
    let c = R.create_collector ~section:name () in
    R.set_created c (timestamp ());
    (match f c with
    | () ->
      if R.collector_is_empty c then Ok None
      else begin
        let path = R.write ~dir:out_dir (R.result c) in
        Ok (Some path)
      end
    | exception e ->
      Error (Printf.sprintf "section %s failed: %s" name (Printexc.to_string e)))
