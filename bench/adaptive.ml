(* Online adaptation: convergence of the per-flow semantics controller.

   Two claims, both gated as strict [Sim] metrics:

   - convergence: on each single-regime workload, the controller
     started on a deliberately wrong semantics must end on the
     measured static winner (without being told it) with no migration
     in the final half of the run;
   - mixed superiority: on the phase-alternating workload restricted to
     the paper's conversion pair, the adaptive run must beat every
     static choice, with migrations bounded by the dwell-derived cap.

   Everything here is simulated time on a deterministic engine, so the
   margins themselves are gate-stable numbers, not noise. *)

module R = Stats.Bench_result
module A = Workload.Adaptive_run

let slug s =
  String.map (function ' ' | '/' | '\\' -> '_' | c -> c) (String.trim s)

let run c =
  Printf.printf
    "\n=== Online adaptation: convergence to per-regime winners ===\n\n";
  let t =
    Stats.Text_table.create
      ~header:
        [ "regime"; "winner"; "start"; "final"; "adaptive us"; "winner us";
          "migr"; "last@"; "settled" ]
  in
  List.iter
    (fun r ->
      let v = A.converge ~start_index:1 r in
      let winner_us = List.assoc v.A.c_winner v.A.c_static_us in
      let name = v.A.c_regime in
      R.scalar c ~name:(Printf.sprintf "adaptive.%s.settled" name)
        ~unit_:"bool" ~better:R.Higher
        (if v.A.c_settled then 1. else 0.);
      R.scalar c ~name:(Printf.sprintf "adaptive.%s.winner_us" name)
        ~unit_:"us" ~better:R.Lower winner_us;
      R.scalar c ~name:(Printf.sprintf "adaptive.%s.adaptive_us" name)
        ~unit_:"us" ~better:R.Lower v.A.c_adaptive_us;
      R.scalar c ~name:(Printf.sprintf "adaptive.%s.migrations" name)
        ~unit_:"count" ~better:R.Lower
        (float_of_int v.A.c_migrations);
      (* Every static candidate's mean RTT: the landscape the controller
         searched, pinned so regime redefinitions show up in compare. *)
      List.iter
        (fun (cand, us) ->
          R.scalar c
            ~name:(Printf.sprintf "adaptive.%s.static.%s_us" name (slug cand))
            ~unit_:"us" ~better:R.Lower us)
        v.A.c_static_us;
      Stats.Text_table.add_row t
        [
          name; v.A.c_winner; v.A.c_start; v.A.c_final;
          Printf.sprintf "%.2f" v.A.c_adaptive_us;
          Printf.sprintf "%.2f" winner_us;
          string_of_int v.A.c_migrations;
          Printf.sprintf "%d/%d" v.A.c_last_migration_epoch v.A.c_epochs;
          (if v.A.c_settled then "yes" else "NO");
        ])
    A.regimes;
  Stats.Text_table.print t;

  Printf.printf "\n--- Mixed workload: adaptation vs every static choice ---\n\n";
  let v = A.converge ~start_index:0 A.mixed_regime in
  let best_static, best_us =
    List.fold_left
      (fun ((_, bu) as b) ((_, u) as cand) -> if u < bu then cand else b)
      ("", infinity) v.A.c_static_us
  in
  let cap =
    Genie.Adapt.migration_cap A.mixed_regime.A.r_adapt ~epochs:v.A.c_epochs
  in
  List.iter
    (fun (cand, us) ->
      R.scalar c
        ~name:(Printf.sprintf "adaptive.mixed.static.%s_us" (slug cand))
        ~unit_:"us" ~better:R.Lower us;
      Printf.printf "  static   %-16s %10.2f us\n" cand us)
    v.A.c_static_us;
  Printf.printf "  adaptive %-16s %10.2f us  (%d migrations, cap %d)\n"
    v.A.c_final v.A.c_adaptive_us v.A.c_migrations cap;
  R.scalar c ~name:"adaptive.mixed.adaptive_us" ~unit_:"us"
    ~better:R.Lower v.A.c_adaptive_us;
  R.scalar c ~name:"adaptive.mixed.best_static_us" ~unit_:"us"
    ~better:R.Lower best_us;
  let gain = 100. *. (best_us -. v.A.c_adaptive_us) /. best_us in
  R.scalar c ~name:"adaptive.mixed.gain_pct" ~unit_:"%"
    ~better:R.Higher gain;
  R.scalar c ~name:"adaptive.mixed.beats_every_static" ~unit_:"bool"
    ~better:R.Higher
    (if v.A.c_adaptive_us < best_us then 1. else 0.);
  R.scalar c ~name:"adaptive.mixed.migrations_within_cap" ~unit_:"bool"
    ~better:R.Higher
    (if v.A.c_migrations <= cap then 1. else 0.);
  Printf.printf
    "  adaptation beats the best static (%s) by %.1f%% — no single corner \
     wins both phases.\n"
    best_static gain
