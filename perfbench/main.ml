(* Command line of the host-performance benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --record

   The last stdout line of a run is its JSON result; the exit code is 0
   when every correctness check passed. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and record = ref false in
  let specs =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME fabric_bulk, paper_probes or fuzz_checked" );
      ("--seed", Arg.Set_int seed, "N picks the workload's inputs");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run with per-layer metrics");
      ("--record", Arg.Set record, " print the recorded digests module");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !record then Perfbench.Bench.record ()
  else
    match Perfbench.Workloads.of_name !workload with
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
    | Some kind ->
      let o =
        Perfbench.Bench.execute kind ~seed:!seed ~seconds:!seconds
          ~trace:(!trace = 1)
      in
      print_endline (Stats.Json.to_string ~indent:0 (Perfbench.Bench.result_json o));
      exit (if o.Perfbench.Bench.correct then 0 else 1)
