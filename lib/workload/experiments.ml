type run = {
  sem : Genie.Semantics.t;
  len : int;
  outcome : Latency_probe.outcome;
}

type series = { label : string; points : (int * float) list }

let page_multiples = List.init 15 (fun i -> (i + 1) * 4096)

(* 64 B .. 8 KB (Figure 5). *)
let short_lengths =
  [ 64; 128; 256; 512; 1024; 1536; 2048; 2560; 3072; 3584; 4096; 6144; 8192 ]

let light_spec (spec : Machine.Machine_spec.t) =
  { spec with Machine.Machine_spec.memory_mb = 16 }

(* One probe configuration per (semantics, length), semantics-major. *)
let configs ?(mode = Net.Adapter.Early_demux) ?(recv_offset = 0)
    ?(spec = Machine.Machine_spec.micron_p166) ?(params = Net.Net_params.oc3)
    ?(semantics = Genie.Semantics.all) ~lens () =
  List.concat_map
    (fun sem ->
      List.map
        (fun len ->
          {
            (Latency_probe.default ~sem ~len) with
            Latency_probe.mode;
            recv_offset;
            spec = light_spec spec;
            params;
          })
        lens)
    semantics

let sweep ?mode ?recv_offset ?spec ?params ?semantics ~lens () =
  List.map
    (fun (cfg : Latency_probe.config) ->
      { sem = cfg.sem; len = cfg.len; outcome = Latency_probe.run cfg })
    (configs ?mode ?recv_offset ?spec ?params ?semantics ~lens ())

let fig3 () = sweep ~lens:page_multiples ()
let fig5 () = sweep ~lens:short_lengths ()

let fig6 () =
  (* Application input alignment: buffers start at the unstripped header
     offset within the page, so pooled pages can be swapped. *)
  sweep ~mode:Net.Adapter.Pooled ~recv_offset:Proto.Dgram_header.length
    ~lens:page_multiples ()

let fig7 () =
  (* Page-aligned application buffers: misaligned with the header-first
     pooled pages, forcing a receive-side copy for application-allocated
     semantics. *)
  sweep ~mode:Net.Adapter.Pooled ~recv_offset:0 ~lens:page_multiples ()

let runs_for runs sem =
  List.filter (fun r -> Genie.Semantics.equal r.sem sem) runs

let latency_series runs =
  List.map
    (fun sem ->
      {
        label = Genie.Semantics.name sem;
        points =
          List.map
            (fun r -> (r.len, r.outcome.Latency_probe.one_way_us))
            (runs_for runs sem);
      })
    Genie.Semantics.all

let fig4 runs =
  List.map
    (fun sem ->
      {
        label = Genie.Semantics.name sem;
        points =
          List.map
            (fun r ->
              ( r.len,
                Cpu_monitor.utilization_pct
                  ~busy_fraction:r.outcome.Latency_probe.cpu_busy_fraction ))
            (runs_for runs sem);
      })
    Genie.Semantics.all

let throughput_60k runs =
  List.filter_map
    (fun r ->
      if r.len = 61440 then
        Some (Genie.Semantics.name r.sem, r.outcome.Latency_probe.throughput_mbps)
      else None)
    runs

let fit_of_runs runs ~sem =
  Stats.Fit.linear
    (List.map
       (fun r -> (float_of_int r.len, r.outcome.Latency_probe.one_way_us))
       (runs_for runs sem))

(* {1 Table 7} *)

type table7_row = {
  sem_name : string;
  scheme : Genie.Stage_cost.scheme;
  estimated : Stats.Fit.t;
  actual : Stats.Fit.t;
}

let estimate_fit costs params ~scheme ~sem =
  (* The estimate is a linear model; recover (slope, intercept) from two
     page-multiple evaluations. *)
  let x1 = 4096 and x2 = 61440 in
  let y1 = Genie.Stage_cost.latency_us costs params ~scheme ~sem ~len:x1 in
  let y2 = Genie.Stage_cost.latency_us costs params ~scheme ~sem ~len:x2 in
  let slope = (y2 -. y1) /. float_of_int (x2 - x1) in
  {
    Stats.Fit.slope;
    intercept = y1 -. (slope *. float_of_int x1);
    r2 = 1.;
    n = 2;
  }

let table7 ~fig3 ~fig6 ~fig7 =
  let costs = Machine.Cost_model.create Machine.Machine_spec.micron_p166 in
  let params = Net.Net_params.oc3 in
  List.concat_map
    (fun sem ->
      List.map
        (fun (scheme, runs) ->
          {
            sem_name = Genie.Semantics.name sem;
            scheme;
            estimated = estimate_fit costs params ~scheme ~sem;
            actual = fit_of_runs runs ~sem;
          })
        [
          (Genie.Stage_cost.Early_demux, fig3);
          (Genie.Stage_cost.Pooled_aligned, fig6);
          (Genie.Stage_cost.Pooled_unaligned, fig7);
        ])
    Genie.Semantics.all

(* {1 Table 6} *)

(* The paper fitted each primitive operation's cycle-counter samples
   against length; here the samples are the charge events of one shared,
   enabled tracer.  After each probe its events are decoded into per-op
   (bytes, us) points in charge order and the tracer is cleared, so
   memory holds one probe's events plus the points.  Returns the ops
   seen, in [Cost_model.all_ops] order, with their points. *)
let op_points cfgs =
  let trace = Simcore.Tracer.create ~enabled:true () in
  let points = Hashtbl.create 64 in
  let add op point =
    let l = Option.value ~default:[] (Hashtbl.find_opt points op) in
    Hashtbl.replace points op (point :: l)
  in
  List.iter
    (fun cfg ->
      ignore (Latency_probe.run ~trace cfg);
      List.iter
        (fun ev ->
          match Genie.Ops.sample ev with
          | Some (op, bytes, cost, n) ->
            let point = (float_of_int bytes, Simcore.Sim_time.to_us cost) in
            for _ = 1 to n do
              add op point
            done
          | None -> ())
        (Simcore.Tracer.typed_events trace);
      Simcore.Tracer.clear trace)
    cfgs;
  List.filter_map
    (fun op -> Option.map (fun l -> (op, List.rev l)) (Hashtbl.find_opt points op))
    Machine.Cost_model.all_ops

let table6 () =
  let lens = [ 2048; 4096; 9000; 16384; 32768; 49152; 61000; 61440 ] in
  List.map
    (fun (op, points) ->
      let fit =
        match points with
        | [] | [ _ ] -> { Stats.Fit.slope = 0.; intercept = 0.; r2 = 1.; n = 0 }
        | _ -> Stats.Fit.linear points
      in
      (op, fit, List.length points))
    (op_points
       (configs ~lens ()
       @ configs ~mode:Net.Adapter.Pooled
           ~recv_offset:Proto.Dgram_header.length ~lens ()))

(* {1 Table 8} *)

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

let geometric_mean values =
  match values with
  | [] -> invalid_arg "Experiments.geometric_mean: empty list"
  | _ ->
    let log_sum =
      List.fold_left
        (fun acc v ->
          if v <= 0. then invalid_arg "Experiments.geometric_mean: non-positive value";
          acc +. log v)
        0. values
    in
    exp (log_sum /. float_of_int (List.length values))

let measured_op_fits spec =
  let psize = spec.Machine.Machine_spec.page_size in
  List.filter_map
    (fun (op, points) ->
      match points with
      | [] | [ _ ] -> None
      | _ -> Some (op, Stats.Fit.linear points))
    (op_points
       (configs ~spec
          ~lens:[ psize; 4 * psize; 7 * psize ]
          ~semantics:
            [ Genie.Semantics.copy; Genie.Semantics.emulated_copy;
              Genie.Semantics.share; Genie.Semantics.move;
              Genie.Semantics.weak_move ]
          ()))

let table8 () =
  let reference = Machine.Machine_spec.micron_p166 in
  let ref_fits = measured_op_fits reference in
  let side (spec : Machine.Machine_spec.t) =
    let fits = measured_op_fits spec in
    let ratio_of op pick =
      match (List.assoc_opt op ref_fits, List.assoc_opt op fits) with
      | (Some r, Some t) ->
        let a = pick r and b = pick t in
        if Float.abs a > 1e-6 && Float.abs b > 1e-6 then Some (b /. a) else None
      | _ -> None
    in
    let slope f = f.Stats.Fit.slope and intercept f = f.Stats.Fit.intercept in
    let cpu_ops =
      List.filter
        (fun op ->
          Machine.Cost_model.mult_domain op = Machine.Cost_model.Cpu
          && op <> Machine.Cost_model.Syscall_entry
          && op <> Machine.Cost_model.Interrupt_dispatch)
        Machine.Cost_model.all_ops
    in
    let mult_ratios = List.filter_map (fun op -> ratio_of op slope) cpu_ops in
    let fixed_ratios =
      List.filter_map
        (fun op ->
          match List.assoc_opt op ref_fits with
          | Some r when r.Stats.Fit.intercept > 0.5 -> ratio_of op intercept
          | _ -> None)
        cpu_ops
    in
    let stats l =
      ( geometric_mean l,
        List.fold_left Float.min infinity l,
        List.fold_left Float.max neg_infinity l )
    in
    let cpu_mult_gm, cpu_mult_min, cpu_mult_max = stats mult_ratios in
    let cpu_fixed_gm, cpu_fixed_min, cpu_fixed_max = stats fixed_ratios in
    let memory_ratio =
      Option.value ~default:Float.nan (ratio_of Machine.Cost_model.Copyout slope)
    in
    let cache_ratio =
      Option.value ~default:Float.nan (ratio_of Machine.Cost_model.Copyin slope)
    in
    {
      machine = spec.Machine.Machine_spec.name;
      memory_ratio;
      cache_ratio;
      cpu_mult_gm;
      cpu_mult_min;
      cpu_mult_max;
      cpu_fixed_gm;
      cpu_fixed_min;
      cpu_fixed_max;
      est_memory =
        reference.Machine.Machine_spec.memory_bw_mbps
        /. spec.Machine.Machine_spec.memory_bw_mbps;
      est_cache_lo =
        reference.Machine.Machine_spec.memory_bw_mbps
        /. spec.Machine.Machine_spec.l2_bw_mbps;
      est_cache_hi =
        reference.Machine.Machine_spec.l2_bw_mbps
        /. spec.Machine.Machine_spec.memory_bw_mbps;
      est_cpu =
        reference.Machine.Machine_spec.specint95
        /. spec.Machine.Machine_spec.specint95;
    }
  in
  [ side Machine.Machine_spec.gateway_p5_90;
    side Machine.Machine_spec.alphastation_255 ]

(* {1 OC-12 extrapolation} *)

let oc12 () =
  let runs =
    sweep ~params:Net.Net_params.oc12 ~lens:[ 61440 ]
      ~semantics:
        [ Genie.Semantics.copy; Genie.Semantics.emulated_copy;
          Genie.Semantics.emulated_share; Genie.Semantics.move ]
      ()
  in
  List.map
    (fun r -> (Genie.Semantics.name r.sem, r.outcome.Latency_probe.throughput_mbps))
    runs
