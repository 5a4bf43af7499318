module C = Machine.Cost_model
module T = Simcore.Sim_time

type t = {
  engine : Simcore.Engine.t;
  costs : C.t;
  vm : Vm.Vm_sys.t;
  phys : Memory.Phys_mem.t;
  page_size : int;
  media : (int, bytes) Hashtbl.t;
  mutable busy_until : T.t;
  mutable next_at : int;  (* arm position: the block after the last transfer *)
  mutable reads : int;
  mutable writes : int;
  mutable seeks : int;
  mutable trace : Simcore.Tracer.scope option;
}

let create engine costs ~vm =
  {
    engine;
    costs;
    vm;
    phys = vm.Vm.Vm_sys.phys;
    page_size = (C.spec costs).Machine.Machine_spec.page_size;
    media = Hashtbl.create 256;
    busy_until = T.zero;
    next_at = 0;
    reads = 0;
    writes = 0;
    seeks = 0;
    trace = None;
  }

let set_trace_scope t scope = t.trace <- Some scope
let page_size t = t.page_size
let reads t = t.reads
let writes t = t.writes
let seeks t = t.seeks

let counter t ?(n = 1) name =
  match t.trace with
  | Some s -> Simcore.Tracer.add_counter s ~n name
  | None -> ()

let media_block t block =
  match Hashtbl.find_opt t.media block with
  | Some b -> b
  | None ->
    let b = Bytes.make t.page_size '\000' in
    Hashtbl.add t.media block b;
    b

let submit t ~dir ~block ~frames ~on_complete =
  let n = List.length frames in
  if n = 0 then invalid_arg "Block_dev.submit: empty request";
  let now = Simcore.Engine.now t.engine in
  let start = T.max now t.busy_until in
  let seeking = block <> t.next_at in
  let seek = if seeking then C.cost t.costs C.Disk_seek ~bytes:0 else T.zero in
  if seeking then begin
    t.seeks <- t.seeks + 1;
    counter t "disk_seeks"
  end;
  let op = match dir with `Read -> C.Disk_read | `Write -> C.Disk_write in
  let dur = T.add seek (C.cost t.costs op ~bytes:(n * t.page_size)) in
  let finish = T.add start dur in
  t.busy_until <- finish;
  t.next_at <- block + n;
  (* The in-flight request is a live page-referencing handle: register
     it with the VM so the io-refcounts invariant can account for the
     references it holds. *)
  let io_id =
    match dir with
    | `Read ->
      t.reads <- t.reads + n;
      counter t ~n "disk_reads";
      List.iter (Memory.Phys_mem.ref_input t.phys) frames;
      Vm.Vm_sys.register_io t.vm ~dir:Vm.Vm_sys.Io_input ~frames ~objects:[]
    | `Write ->
      t.writes <- t.writes + n;
      counter t ~n "disk_writes";
      List.iter (Memory.Phys_mem.ref_output t.phys) frames;
      Vm.Vm_sys.register_io t.vm ~dir:Vm.Vm_sys.Io_output ~frames ~objects:[]
  in
  (match t.trace with
  | Some s when Simcore.Tracer.on s ->
    Simcore.Tracer.complete s ~start ~dur
      ~args:
        [ ("block", Simcore.Tracer.Int block); ("blocks", Simcore.Tracer.Int n) ]
      (match dir with `Read -> "dev.read" | `Write -> "dev.write")
  | _ -> ());
  Simcore.Engine.at t.engine ~time:finish (fun () ->
      List.iteri
        (fun i frame ->
          let page = media_block t (block + i) in
          match dir with
          | `Read ->
            Memory.Frame.blit_in frame ~dst_off:0 ~src:page ~src_off:0
              ~len:t.page_size
          | `Write ->
            Memory.Frame.blit_out frame ~src_off:0 ~dst:page ~dst_off:0
              ~len:t.page_size)
        frames;
      (match dir with
      | `Read -> List.iter (Memory.Phys_mem.unref_input t.phys) frames
      | `Write -> List.iter (Memory.Phys_mem.unref_output t.phys) frames);
      Vm.Vm_sys.forget_io t.vm io_id;
      on_complete ())

let flush t ~on_complete =
  let now = Simcore.Engine.now t.engine in
  let start = T.max now t.busy_until in
  let dur = C.cost t.costs C.Fsync_barrier ~bytes:0 in
  let finish = T.add start dur in
  t.busy_until <- finish;
  (match t.trace with
  | Some s when Simcore.Tracer.on s ->
    Simcore.Tracer.complete s ~start ~dur ~args:[] "dev.flush"
  | _ -> ());
  Simcore.Engine.at t.engine ~time:finish on_complete
