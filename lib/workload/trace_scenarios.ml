(* Named, deterministic workloads that run with tracing enabled, for the
   `genie_cli trace` subcommand and the exporter tests.  Each scenario
   builds a fresh two-host world sharing one enabled tracer, drives a
   short transfer mix that exercises the mechanism named in its
   description, and returns the tracer for export. *)

module Sem = Genie.Semantics

type t = {
  name : string;
  descr : string;
  run : unit -> Simcore.Tracer.t;
}

let make_world () =
  let trace = Simcore.Tracer.create ~enabled:true () in
  let w = Genie.World.create ~trace () in
  (trace, w)

let make_buf host ~len = Genie.Buf.map (Genie.Host.new_space host) ~len

(* A scenario is a fixed script on a fresh world, so a rejected call is
   a bug in the scenario, not load to account for. *)
let send ep ~sem ~buf =
  match Genie.Endpoint.output ep ~sem ~buf () with
  | Ok _ -> ()
  | Error `Again -> failwith "Trace_scenarios: output rejected"

let post_input ep ~sem ~spec =
  match Genie.Endpoint.input ep ~sem ~spec ~on_complete:(fun _ -> ()) with
  | Ok _ -> ()
  | Error `Again -> failwith "Trace_scenarios: input rejected"

let transfer w ea eb ~sem_out ~sem_in ~len ~seed =
  let rbuf = make_buf (List.nth (Genie.World.hosts w) 1) ~len in
  post_input eb ~sem:sem_in ~spec:(Genie.Input_path.App_buffer rbuf);
  let sbuf = make_buf (List.hd (Genie.World.hosts w)) ~len in
  Genie.Buf.fill_pattern sbuf ~seed;
  send ea ~sem:sem_out ~buf:sbuf;
  sbuf

let emulated_copy_run () =
  let trace, w = make_world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  (* Sizes straddling the copy-emulation threshold: the small transfer is
     converted to plain copy, the large ones take the TCOW path. *)
  List.iteri
    (fun i len -> ignore (transfer w ea eb ~sem_out:Sem.emulated_copy ~sem_in:Sem.emulated_copy ~len ~seed:i))
    [ 1024; 16384; 61440 ];
  Genie.World.run w;
  trace

let copy_pooled_run () =
  let trace, w = make_world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Pooled in
  List.iteri
    (fun i len -> ignore (transfer w ea eb ~sem_out:Sem.copy ~sem_in:Sem.copy ~len ~seed:i))
    [ 4096; 32768 ];
  Genie.World.run w;
  trace

let move_run () =
  let trace, w = make_world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let a = List.hd (Genie.World.hosts w) and b = List.nth (Genie.World.hosts w) 1 in
  let rspace = Genie.Host.new_space b in
  let len = 32768 in
  post_input eb ~sem:Sem.move
    ~spec:(Genie.Input_path.Sys_alloc { space = rspace; len });
  (* Move output requires a moved-in (system-allocated) source region. *)
  let sbuf = Genie.Sys_buffers.alloc a (Genie.Host.new_space a) ~len in
  Genie.Buf.fill_pattern sbuf ~seed:7;
  send ea ~sem:Sem.move ~buf:sbuf;
  Genie.World.run w;
  trace

let tcow_poke_run () =
  let trace, w = make_world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let len = 61440 in
  let sbuf = transfer w ea eb ~sem_out:Sem.emulated_copy ~sem_in:Sem.emulated_copy ~len ~seed:3 in
  (* Write into the in-flight strong-integrity output buffer before the
     transmit retires: the write fault must break TCOW, not the data. *)
  Vm.Address_space.write sbuf.Genie.Buf.space ~addr:sbuf.Genie.Buf.addr
    (Bytes.make 64 'X');
  Genie.World.run w;
  trace

let outboard_run () =
  let trace, w = make_world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Outboard in
  List.iteri
    (fun i len -> ignore (transfer w ea eb ~sem_out:Sem.emulated_copy ~sem_in:Sem.emulated_copy ~len ~seed:i))
    [ 8192; 61440 ];
  Genie.World.run w;
  trace

let all =
  [
    {
      name = "emulated-copy";
      descr =
        "emulated-copy transfers straddling the conversion threshold \
         (early-demultiplexed VC)";
      run = emulated_copy_run;
    };
    {
      name = "copy-pooled";
      descr = "plain-copy transfers through pooled in-host buffering";
      run = copy_pooled_run;
    };
    {
      name = "move";
      descr = "move semantics end to end: region moves out of the sender \
               and into a fresh receiver region";
      run = move_run;
    };
    {
      name = "tcow-poke";
      descr =
        "application write into an in-flight emulated-copy output buffer \
         (TCOW break)";
      run = tcow_poke_run;
    };
    {
      name = "outboard";
      descr = "emulated-copy transfers staged through outboard adapter \
               memory (DMA events)";
      run = outboard_run;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all
