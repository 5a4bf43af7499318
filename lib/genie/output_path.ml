module C = Machine.Cost_model

type outcome = {
  semantics_used : Semantics.t;
  prepared_at : Simcore.Sim_time.t;
}

exception Backpressure
(* Internal early exit for the admission check; surfaced as [Error `Again]. *)

let effective_semantics (host : Host.t) sem len =
  let th = host.Host.thresholds in
  if Semantics.equal sem Semantics.emulated_copy
     && len < th.Thresholds.copy_out_emulated_copy
  then Semantics.copy
  else if Semantics.equal sem Semantics.emulated_share
          && len < th.Thresholds.copy_out_emulated_share
  then Semantics.copy
  else sem

(* Degradation ladder, first rung: under overlay-pool pressure emulated
   copy falls back to plain copy — the same conversion the length
   thresholds perform, triggered by resource state instead of size.
   Copy needs no overlay frames at the receiver and arms no TCOW. *)
let pressure_semantics (host : Host.t) sem =
  let th = host.Host.thresholds in
  if
    Semantics.equal sem Semantics.emulated_copy
    && th.Thresholds.pool_fallback_frames > 0
    && Host.pool_level host < th.Thresholds.pool_fallback_frames
  then begin
    if Simcore.Tracer.on host.Host.scope then
      Simcore.Tracer.instant host.Host.scope "degrade.fallback"
        ~args:
          [
            ("from", Simcore.Tracer.Str (Semantics.name sem));
            ("to", Simcore.Tracer.Str (Semantics.name Semantics.copy));
          ];
    Simcore.Tracer.add_counter host.Host.scope "sem_fallbacks";
    Semantics.copy
  end
  else sem

(* Build a kernel system buffer holding a copy of the application data. *)
let copyin_to_system_buffer (host : Host.t) (buf : Buf.t) =
  let ops = host.Host.ops in
  let psize = Host.page_size host in
  let npages = (buf.Buf.len + psize - 1) / psize in
  Ops.charge ops C.Sysbuf_allocate ~unit:(`Bytes 0);
  let frames = Host.alloc_sys_frames host npages in
  (* Copy frame to frame through the application's mappings; a source
     chunk may straddle two destination frames when the buffer address
     is not page-aligned. *)
  let frames_arr = Array.of_list frames in
  Vm.Address_space.iter_read buf.Buf.space ~addr:buf.Buf.addr ~len:buf.Buf.len
    (fun ~buf_off src ~off ~len ->
      let rec put buf_off src_off remaining =
        if remaining > 0 then begin
          let i = buf_off / psize and o = buf_off mod psize in
          let n = min remaining (psize - o) in
          Memory.Frame.blit_in frames_arr.(i) ~dst_off:o
            ~src:(Memory.Frame.data src) ~src_off ~len:n;
          put (buf_off + n) (src_off + n) (remaining - n)
        end
      in
      put buf_off off len);
  let segs =
    List.mapi
      (fun i frame ->
        let off = i * psize in
        { Memory.Io_desc.frame; off = 0; len = min psize (buf.Buf.len - off) })
      frames
  in
  Ops.charge ops C.Copyin ~unit:(`Bytes buf.Buf.len);
  (Memory.Io_desc.of_segs segs, frames)

let check_system_allocated (buf : Buf.t) sem =
  let region = Vm.Address_space.region_of_addr buf.Buf.space ~vaddr:buf.Buf.addr in
  if region.Vm.Region.state <> Vm.Region.Moved_in then
    Vm.Vm_error.semantics
      "output with %s semantics requires a moved-in region, found %s"
      (Semantics.name sem)
      (Vm.Region.movability_name region.Vm.Region.state);
  region

let buffer_region (buf : Buf.t) =
  Vm.Address_space.region_of_addr buf.Buf.space ~vaddr:buf.Buf.addr

let buffer_page_range (host : Host.t) (buf : Buf.t) (region : Vm.Region.t) =
  let psize = Host.page_size host in
  let first = (buf.Buf.addr / psize) - region.Vm.Region.start_vpn in
  (first, Buf.pages buf)

(* Refuse the output as backpressure: trace it, count it, and leave
   through [Backpressure]. *)
let reject (host : Host.t) ~vc ~pages =
  if Simcore.Tracer.on host.Host.scope then
    Simcore.Tracer.instant host.Host.scope "degrade.again"
      ~args:
        [
          ("where", Simcore.Tracer.Str "output");
          ("vc", Simcore.Tracer.Int vc);
          ("pages", Simcore.Tracer.Int pages);
        ];
  Simcore.Tracer.add_counter host.Host.scope "backpressure_rejects";
  raise_notrace Backpressure

let output_admitted (host : Host.t) ~vc ~sem ~buf ~seq ~on_complete =
  let ops = host.Host.ops in
  let engine = host.Host.engine in
  let len = buf.Buf.len in
  if len <= 0 then invalid_arg "Output_path.output: empty buffer";
  if len + Proto.Dgram_header.length > Net.Aal5.max_pdu then
    invalid_arg "Output_path.output: datagram too large for AAL5";
  (* The system-allocation constraint applies to the semantics the caller
     asked for, before any threshold conversion. *)
  if Semantics.system_allocated sem then ignore (check_system_allocated buf sem);
  Ops.charge ops C.Syscall_entry ~unit:(`Bytes 0);
  let sem_eff = pressure_semantics host (effective_semantics host sem len) in
  (* Backpressure: the plain-copy path demands system-buffer frames right
     now, and reading the application buffer (copyin or the reference
     walk) pages swapped-out source pages back in — one more frame each.
     Under exhaustion, try a pageout reclaim; if frames still can't be
     found, reject with `Again instead of raising — the caller may retry
     once memory drains.  In-place outputs of resident buffers allocate
     nothing here and are always admitted. *)
  let psize = Host.page_size host in
  let npages =
    (if Semantics.in_place sem_eff then 0 else (len + psize - 1) / psize)
    + Vm.Address_space.read_alloc_deficit buf.Buf.space ~addr:buf.Buf.addr ~len
  in
  if npages > 0 then begin
    let phys = host.Host.vm.Vm.Vm_sys.phys in
    let admitted =
      Memory.Phys_mem.free_frames phys >= npages
      || (Host.reclaim_retry host ~target:(max 16 npages) ~why:"output"
          && Memory.Phys_mem.free_frames phys >= npages)
    in
    if not admitted then reject host ~vc ~pages:npages
  end;
  let scope = host.Host.scope in
  let span =
    if Simcore.Tracer.on scope then
      Simcore.Tracer.span_begin scope "output.path"
        ~args:
          [
            ("vc", Simcore.Tracer.Int vc);
            ("sem", Simcore.Tracer.Str (Semantics.name sem_eff));
            ("len", Simcore.Tracer.Int len);
            ("seq", Simcore.Tracer.Int seq);
          ]
    else 0
  in
  let hdr =
    Proto.Dgram_header.encode
      { Proto.Dgram_header.src_vc = vc; dst_vc = vc; seq; payload_len = len }
  in
  let desc, dispose, ledger_entry =
    if not (Semantics.in_place sem_eff) then begin
      (* Plain copy: data leaves through a system buffer. *)
      let desc, frames = copyin_to_system_buffer host buf in
      let entry =
        Ledger.note host.Host.ledger ~dir:Ledger.Output ~sem:sem_eff
          ~space:buf.Buf.space
          ~region:(fun () -> None)
          ~handle:(fun () -> None)
      in
      ( desc,
        (fun () ->
          Ops.charge ops C.Sysbuf_deallocate ~unit:(`Bytes 0);
          Host.free_sys_frames host frames),
        entry )
    end
    else begin
      let space = buf.Buf.space in
      let region = buffer_region buf in
      let first, pages = buffer_page_range host buf region in
      let handle =
        (* Admission priced the walk's page-ins, but its reclaim retry
           may have paged out other pages of the buffer: when even the
           emergency reserve runs dry, the walk has already dropped its
           references, and the output is refused as backpressure. *)
        match
          Vm.Page_ref.reference space ~addr:buf.Buf.addr ~len
            Vm.Page_ref.For_output
        with
        | handle -> handle
        | exception Memory.Phys_mem.Out_of_frames ->
          Simcore.Tracer.span_end scope ~id:span "output.path";
          reject host ~vc ~pages
      in
      Ops.charge ops C.Reference ~unit:(`Pages pages);
      let unref () =
        Ops.charge ops C.Unreference ~unit:(`Pages pages);
        Vm.Page_ref.unreference handle
      in
      (* Wiring covers the buffer's pages (Table 6's wire cost is linear
         in the data length), nesting with any other wirings. *)
      let wire () =
        Ops.charge ops C.Wire ~unit:(`Pages pages);
        Vm.Address_space.wire_range space region ~first ~pages
      and unwire () =
        Ops.charge ops C.Unwire ~unit:(`Pages pages);
        Vm.Address_space.unwire_range space region ~first ~pages
      in
      let mark state op =
        Ops.charge ops op ~unit:(`Bytes 0);
        region.Vm.Region.state <- state
      in
      let invalidate_region () =
        Ops.charge ops C.Invalidate ~unit:(`Pages region.Vm.Region.npages);
        Vm.Address_space.invalidate space region ~first:0
          ~pages:region.Vm.Region.npages
      in
      let dispose =
        match (sem_eff.Semantics.alloc, sem_eff.Semantics.integrity,
               sem_eff.Semantics.emulated)
        with
        | (Semantics.Application, Semantics.Strong, true) ->
          (* Emulated copy: arm TCOW on the buffer's pages. *)
          Ops.charge ops C.Read_only ~unit:(`Pages pages);
          Vm.Address_space.make_readonly space region ~first ~pages;
          fun () -> unref ()
        | (Semantics.Application, Semantics.Weak, false) ->
          (* Share: in-place, wired for the duration of the output. *)
          wire ();
          fun () ->
            unwire ();
            unref ()
        | (Semantics.Application, Semantics.Weak, true) ->
          (* Emulated share: page referencing alone; input-disabled
             pageout makes wiring unnecessary. *)
          fun () -> unref ()
        | (Semantics.System, Semantics.Strong, false) ->
          (* Move: wire, hide, and remove the region at dispose. *)
          wire ();
          mark Vm.Region.Moving_out C.Region_mark_out;
          invalidate_region ();
          fun () ->
            unwire ();
            unref ();
            Ops.charge ops C.Region_remove ~unit:(`Pages region.Vm.Region.npages);
            Vm.Address_space.remove_region space region
        | (Semantics.System, Semantics.Strong, true) ->
          (* Emulated move: region hiding instead of removal. *)
          mark Vm.Region.Moving_out C.Region_mark_out;
          invalidate_region ();
          fun () ->
            unref ();
            mark Vm.Region.Moved_out C.Region_mark_out;
            Vm.Address_space.cache_region space region
        | (Semantics.System, Semantics.Weak, false) ->
          (* Weak move: pages stay mapped; region cached for reuse. *)
          wire ();
          mark Vm.Region.Moving_out C.Region_mark_out;
          fun () ->
            unwire ();
            unref ();
            mark Vm.Region.Weakly_moved_out C.Region_mark_out;
            Vm.Address_space.cache_region space region
        | (Semantics.System, Semantics.Weak, true) ->
          (* Emulated weak move. *)
          mark Vm.Region.Moving_out C.Region_mark_out;
          fun () ->
            unref ();
            mark Vm.Region.Weakly_moved_out C.Region_mark_out;
            Vm.Address_space.cache_region space region
        | (Semantics.Application, Semantics.Strong, false) ->
          assert false (* plain copy handled above *)
      in
      let entry =
        Ledger.note host.Host.ledger ~dir:Ledger.Output ~sem:sem_eff ~space
          ~region:(fun () -> Some region)
          ~handle:(fun () ->
            if handle.Vm.Page_ref.active then Some handle else None)
      in
      (handle.Vm.Page_ref.desc, dispose, entry)
    end
  in
  let prepared_at = Ops.completion_time ops in
  Simcore.Engine.at engine ~time:prepared_at (fun () ->
      Net.Adapter.transmit host.Host.adapter ~vc ~hdr ~desc
        ~on_tx_complete:(fun () ->
          if Simcore.Tracer.on scope then
            Simcore.Tracer.instant scope "output.dispose"
              ~args:[ ("sem", Simcore.Tracer.Str (Semantics.name sem_eff)) ];
          dispose ();
          Ledger.retire host.Host.ledger ledger_entry;
          Simcore.Engine.at engine ~time:(Ops.completion_time ops) (fun () ->
              Simcore.Tracer.span_end scope ~id:span "output.path";
              on_complete ())));
  { semantics_used = sem_eff; prepared_at }

let output (host : Host.t) ~vc ~sem ~buf ~seq ~on_complete =
  match output_admitted host ~vc ~sem ~buf ~seq ~on_complete with
  | outcome -> Ok outcome
  | exception Backpressure -> Error `Again
