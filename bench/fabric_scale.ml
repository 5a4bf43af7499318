(* Datacenter-scale fabric: the N-host fan-in flow engine at bench
   scale.

   Three sub-experiments on the default fabric (1024 hosts over 4
   ports, Pareto(1.3) sizes, load 0.7):

   - scale: one full run; delivered throughput, sojourn percentiles and
     the accounting identities;
   - memory bound: offering 4x the flows must leave the flow-table
     capacity and the streaming-summary footprint unchanged -- state is
     O(active flows), not O(offered flows).  The 0/1 bounded indicator
     gates the claim;
   - knee: the closed-loop load sweep bisects for the highest load
     whose p99 sojourn meets a budget.

   Every number is deterministic, so all are gated strictly.  Host
   flows per second is perfbench's [fabric_bulk] workload. *)

module R = Stats.Bench_result
module S = Stats.Streaming_summary
module Fabric = Workload.Fabric
module Load_sweep = Workload.Load_sweep

let q (o : Fabric.outcome) p =
  if S.is_empty o.Fabric.sojourn_us then nan else S.quantile o.Fabric.sojourn_us p

let run c =
  Printf.printf "\n=== Fan-in fabric: flow scale, memory bound, load knee ===\n\n";
  let cfg = Fabric.default in

  (* {1 Scale: one full run} *)
  let o = Fabric.run cfg in
  R.scalar c ~name:"fabric.flows" ~unit_:"count" ~better:R.Neutral
    (float_of_int o.Fabric.offered);
  R.scalar c ~name:"fabric.completed" ~unit_:"count"
    ~better:R.Higher
    (float_of_int o.Fabric.completed);
  R.scalar c ~name:"fabric.delivered_mbps" ~unit_:"Mbps"
    ~better:R.Higher o.Fabric.delivered_mbps;
  R.scalar c ~name:"fabric.sojourn_p50_us" ~unit_:"us"
    ~better:R.Lower (q o 0.5);
  R.scalar c ~name:"fabric.sojourn_p99_us" ~unit_:"us"
    ~better:R.Lower (q o 0.99);
  R.scalar c ~name:"fabric.sojourn_p999_us" ~unit_:"us"
    ~better:R.Lower (q o 0.999);
  (* The books must balance: every arrival is accepted or refused, and
     every accepted flow drains before [run] returns. *)
  R.scalar c ~name:"fabric.accounting_ok" ~unit_:"bool"
    ~better:R.Higher
    (if
       o.Fabric.offered = o.Fabric.accepted + o.Fabric.rejected
       && o.Fabric.completed = o.Fabric.accepted
     then 1.
     else 0.);
  Printf.printf
    "%d flows: %d completed, %.1f Mbps delivered, sojourn p50/p99 =\n\
     %.0f/%.0f us.\n\n"
    o.Fabric.offered o.Fabric.completed o.Fabric.delivered_mbps (q o 0.5)
    (q o 0.99);

  (* {1 Memory bound: 4x the offered flows, same footprint} *)
  let o4 = Fabric.run { cfg with Fabric.flows = 4 * cfg.Fabric.flows } in
  let words = S.memory_words o.Fabric.sojourn_us
  and words4 = S.memory_words o4.Fabric.sojourn_us in
  let bounded =
    o4.Fabric.table_capacity = o.Fabric.table_capacity && words4 = words
  in
  let t =
    Stats.Text_table.create
      ~header:
        [ "offered"; "active high water"; "table slots"; "summary words" ]
  in
  List.iter
    (fun (oo : Fabric.outcome) ->
      Stats.Text_table.add_row t
        [
          string_of_int oo.Fabric.offered;
          string_of_int oo.Fabric.active_high_water;
          string_of_int oo.Fabric.table_capacity;
          string_of_int (S.memory_words oo.Fabric.sojourn_us);
        ])
    [ o; o4 ];
  Stats.Text_table.print t;
  R.scalar c ~name:"fabric.table_capacity" ~unit_:"slots"
    ~better:R.Lower
    (float_of_int o.Fabric.table_capacity);
  R.scalar c ~name:"fabric.active_high_water" ~unit_:"flows"
    ~better:R.Neutral
    (float_of_int o.Fabric.active_high_water);
  R.scalar c ~name:"fabric.memory_bounded" ~unit_:"bool"
    ~better:R.Higher
    (if bounded then 1. else 0.);
  Printf.printf
    "4x the offered flows leaves the flow table at %d slots and the\n\
     sojourn summaries at %d words: state is O(active), not O(offered).\n\n"
    o4.Fabric.table_capacity words4;

  (* {1 Closed-loop knee: highest load meeting a p99 budget} *)
  let probe_cfg = { cfg with Fabric.flows = 600 } in
  let p99_limit_us = 25_000. in
  let knee, probes =
    Load_sweep.fabric_knee ~iters:4 probe_cfg ~p99_limit_us ~lo:0.3 ~hi:1.2
  in
  let kt =
    Stats.Text_table.create
      ~header:[ "load"; "delivered Mbps"; "p99 us"; "rejected" ]
  in
  List.iter
    (fun (p : Load_sweep.fabric_point) ->
      Stats.Text_table.add_row kt
        [
          Printf.sprintf "%.3f" p.Load_sweep.load;
          Printf.sprintf "%.1f" p.Load_sweep.delivered_mbps;
          Printf.sprintf "%.0f" p.Load_sweep.p99_us;
          Printf.sprintf "%.1f%%" (100. *. p.Load_sweep.rejected_frac);
        ])
    probes;
  Stats.Text_table.print kt;
  R.scalar c ~name:"fabric.knee_load" ~unit_:"load"
    ~better:R.Higher knee.Load_sweep.load;
  R.scalar c ~name:"fabric.knee_p99_us" ~unit_:"us"
    ~better:R.Lower knee.Load_sweep.p99_us;
  Printf.printf
    "Knee: load %.3f is the highest probed offer whose p99 sojourn\n\
     (%.0f us) meets the %.0f us budget.\n"
    knee.Load_sweep.load knee.Load_sweep.p99_us p99_limit_us
