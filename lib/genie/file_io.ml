module C = Machine.Cost_model

type t = { host : Host.t; cache : Store.Page_cache.t }

let create ?config (host : Host.t) =
  let dev =
    Store.Block_dev.create host.Host.engine host.Host.costs ~vm:host.Host.vm
  in
  let scope =
    Simcore.Tracer.scope host.Host.tracer ~host:host.Host.name
      ~sub:Simcore.Tracer.Store
  in
  Store.Block_dev.set_trace_scope dev scope;
  let ops = host.Host.ops in
  let charging =
    {
      Store.Page_cache.charge =
        (fun op ~bytes -> Ops.charge ops op ~unit:(`Bytes bytes));
      charge_n =
        (fun op ~bytes ~n -> Ops.charge_n ops op ~unit:(`Bytes bytes) ~n);
      charged_until = (fun () -> Ops.completion_time ops);
    }
  in
  let cache =
    Store.Page_cache.create ?config ~engine:host.Host.engine ~dev ~charging
      ~alloc_frame:(fun () ->
        match Host.try_alloc_sys_frames host 1 with
        | Some [ f ] -> Some f
        | Some fs ->
          Host.free_sys_frames host fs;
          None
        | None -> None)
      ~free_frame:(fun f -> Host.free_sys_frames host [ f ])
      ()
  in
  Store.Page_cache.set_trace_scope cache scope;
  { host; cache }

let cache t = t.cache
let open_file t = Store.Page_cache.open_file t.cache
let size t ~fd = Store.Page_cache.file_size t.cache fd
let drop_caches t = Store.Page_cache.drop_caches t.cache
let writeback_now t = Store.Page_cache.writeback_now t.cache

let read t ~fd ~off ~len ~on_complete =
  let ops = t.host.Host.ops in
  Ops.charge ops C.Syscall_entry ~unit:(`Bytes 0);
  Store.Page_cache.read t.cache ~fd ~off ~len ~on_complete:(fun desc ->
      let n = Memory.Io_desc.total_len desc in
      Ops.charge ops C.Copyout ~unit:(`Bytes n);
      let data =
        if n = 0 then Bytes.create 0 else Memory.Io_desc.gather desc ~off:0 ~len:n
      in
      Simcore.Engine.at t.host.Host.engine
        ~time:(Ops.completion_time ops)
        (fun () -> on_complete data))

let write t ~fd ~off ~data ~on_complete =
  Ops.charge t.host.Host.ops C.Syscall_entry ~unit:(`Bytes 0);
  Store.Page_cache.write t.cache ~fd ~off ~data ~on_complete

let fsync t ~fd ~on_complete =
  Ops.charge t.host.Host.ops C.Syscall_entry ~unit:(`Bytes 0);
  Store.Page_cache.fsync t.cache ~fd ~on_complete

let sendfile t ep ~fd ~off ~len ?(on_complete = fun () -> ()) () =
  let host = t.host in
  let ops = host.Host.ops in
  let vc = Endpoint.vc ep in
  if len <= 0 then invalid_arg "File_io.sendfile: empty range";
  if len + Proto.Dgram_header.length > Net.Aal5.max_pdu then
    invalid_arg "File_io.sendfile: range too large for AAL5";
  if off + len > Store.Page_cache.file_size t.cache fd then
    invalid_arg "File_io.sendfile: range beyond EOF";
  Ops.charge ops C.Syscall_entry ~unit:(`Bytes 0);
  let seq = Endpoint.alloc_seq ep in
  let res =
    Store.Page_cache.read t.cache ~fd ~off ~len ~on_complete:(fun desc ->
        let frames = Memory.Io_desc.frames desc in
        let pages = List.length frames in
        let phys = host.Host.vm.Vm.Vm_sys.phys in
        (* Page referencing instead of copying: the wire gathers the
           cache frames themselves; the output references pin them
           against eviction until the adapter is done.  Registered as a
           live io_view so io-refcounts audits the transmit. *)
        Ops.charge ops C.Reference ~unit:(`Pages pages);
        List.iter (Memory.Phys_mem.ref_output phys) frames;
        let io_id =
          Vm.Vm_sys.register_io host.Host.vm ~dir:Vm.Vm_sys.Io_output ~frames
            ~objects:[]
        in
        let hdr =
          Proto.Dgram_header.encode
            { Proto.Dgram_header.src_vc = vc; dst_vc = vc; seq; payload_len = len }
        in
        Simcore.Engine.at host.Host.engine
          ~time:(Ops.completion_time ops)
          (fun () ->
            Net.Adapter.transmit host.Host.adapter ~vc ~hdr ~desc
              ~on_tx_complete:(fun () ->
                Ops.charge ops C.Unreference ~unit:(`Pages pages);
                List.iter (Memory.Phys_mem.unref_output phys) frames;
                Vm.Vm_sys.forget_io host.Host.vm io_id;
                Simcore.Engine.at host.Host.engine
                  ~time:(Ops.completion_time ops)
                  on_complete)))
  in
  match res with Ok () -> Ok seq | Error `Again -> Error `Again
