(* Cross-semantics latency matrix.

   Section 8: "the end-to-end latency when sender and receiver use
   different semantics can be expected to be equal to the sum of the
   base latency plus sender-side latencies of the semantics used by the
   sender plus receiver-side latencies of the semantics used by the
   receiver."  We measure all 64 sender x receiver combinations at 60 KB
   (early demultiplexing) and compare each against that composition. *)

module As = Vm.Address_space
module Sem = Genie.Semantics
module C = Machine.Cost_model

let light = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166
let psize = 4096
let len = 61440

let measure send_sem recv_sem =
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let space_a = Genie.Host.new_space w.Genie.World.a in
  let state =
    if Sem.system_allocated send_sem then Vm.Region.Moved_in else Vm.Region.Unmovable
  in
  let region = As.map_region space_a ~npages:(len / psize) ~state in
  let buf =
    Genie.Buf.make space_a ~addr:(As.base_addr region ~page_size:psize) ~len
  in
  Genie.Buf.fill_pattern buf ~seed:1;
  let spec =
    if Sem.system_allocated recv_sem then
      Genie.Input_path.Sys_alloc
        { space = Genie.Host.new_space w.Genie.World.b; len }
    else begin
      let space_b = Genie.Host.new_space w.Genie.World.b in
      let r = As.map_region space_b ~npages:(len / psize) in
      Genie.Input_path.App_buffer
        (Genie.Buf.make space_b ~addr:(As.base_addr r ~page_size:psize) ~len)
    end
  in
  let done_at = ref nan in
  (match
     Genie.Endpoint.input eb ~sem:recv_sem ~spec ~on_complete:(fun r ->
         if not (Genie.Input_path.ok r) then failwith "mixed transfer failed";
         done_at := Genie.Host.now_us w.Genie.World.b)
   with
  | Ok _ -> ()
  | Error `Again -> failwith "mixed input rejected");
  (* Warm the path once (region caches, etc.) would complicate
     system-allocated buffers; a single cold transfer is fine here since
     region allocation costs are charged identically in the composition. *)
  let t0 = Genie.Host.now_us w.Genie.World.a in
  (match Genie.Endpoint.output ea ~sem:send_sem ~buf () with
  | Ok _ -> ()
  | Error `Again -> failwith "mixed output rejected");
  Genie.World.run w;
  !done_at -. t0

(* The composed expectation, from the breakdown model's pieces. *)
let costs = C.create Machine.Machine_spec.micron_p166

let composed send_sem recv_sem =
  Genie.Stage_cost.mixed_latency_us costs Net.Net_params.oc3
    ~scheme:Genie.Stage_cost.Early_demux ~send_sem ~recv_sem ~len

let slug s = String.map (function ' ' -> '_' | c -> c) s

let run c =
  Printf.printf "\nCross-semantics latency matrix (60 KB, early demux, usec)\n";
  Printf.printf "==========================================================\n";
  Printf.printf
    "Rows: sender semantics; columns: receiver semantics.  Each cell:\n\
     measured (model composition in parentheses).\n\n";
  let header =
    "sender \\ receiver"
    :: List.map (fun s -> Sem.name s) Sem.all
  in
  let t = Stats.Text_table.create ~header in
  let worst = ref 0. in
  List.iter
    (fun s ->
      let cells =
        List.map
          (fun r ->
            let m = measure s r in
            let comp = composed s r in
            let err = 100. *. Float.abs (m -. comp) /. comp in
            if err > !worst then worst := err;
            Stats.Bench_result.scalar c
              ~name:
                (Printf.sprintf "mixed.%s__to__%s.one_way_us" (slug (Sem.name s))
                   (slug (Sem.name r)))
              ~unit_:"us" m;
            Printf.sprintf "%.0f (%.0f)" m comp)
          Sem.all
      in
      Stats.Text_table.add_row t (Sem.name s :: cells))
    Sem.all;
  Stats.Text_table.print t;
  Stats.Bench_result.scalar c ~name:"mixed.worst_model_deviation_pct" ~unit_:"%"
    !worst;
  Printf.printf
    "\nWorst deviation from the breakdown-model composition: %.1f%%\n" !worst
