module C = Machine.Cost_model

type spec =
  | App_buffer of Buf.t
  | Sys_alloc of { space : Vm.Address_space.t; len : int }

type result = {
  buf : Buf.t option;
  payload_len : int;
  seq : int;
  status : (unit, Outcome.drop) Stdlib.result;
}

let ok r = r.status = Ok ()

exception Backpressure
(* Raised by [prepare] when the admission check cannot find frames even
   after a pageout-reclaim retry; Endpoint surfaces it as [Error `Again].
   Raised before any state changes, so nothing needs undoing. *)

type pending = {
  sem : Semantics.t;
  spec : spec;
  expected_len : int;
  p_token : int;
  mutable handle : Vm.Page_ref.handle option;
  mutable region : Vm.Region.t option;
  mutable hdr_frame : Memory.Frame.t option;
  mutable sys_frames : Memory.Frame.t list;
      (* aligned / system buffer allocated at ready time *)
  mutable sys_off : int;  (* page offset of payload within sys_frames *)
  mutable ledger_id : int option;
  mutable p_span : int;  (* typed-trace span id of the whole input path *)
  on_complete : result -> unit;
}

let token p = p.p_token

let spec_space = function
  | App_buffer b -> b.Buf.space
  | Sys_alloc { space; _ } -> space

let spec_len = function
  | App_buffer b -> b.Buf.len
  | Sys_alloc { len; _ } -> len

let app_buffer p =
  match p.spec with
  | App_buffer b -> b
  | Sys_alloc _ -> invalid_arg "Input_path: expected an application buffer"

let pages_of host len = ((len + Host.page_size host - 1) / Host.page_size host)

(* Build a descriptor over kernel frames where the payload starts at page
   offset [off] of the first frame (system input alignment). *)
let frames_desc host frames ~off ~len =
  let psize = Host.page_size host in
  let segs =
    List.filteri (fun _ _ -> true) frames
    |> List.mapi (fun i frame ->
           let lo = if i = 0 then off else 0 in
           let done_before = if i = 0 then 0 else (i * psize) - off in
           let remaining = len - done_before in
           { Memory.Io_desc.frame; off = lo; len = min (psize - lo) remaining })
    |> List.filter (fun s -> s.Memory.Io_desc.len > 0)
  in
  Memory.Io_desc.of_segs segs

(* {1 Prepare stage (Table 3)} *)

let prepare (host : Host.t) ~mode ~sem ~spec ~vc ~token ~on_complete =
  let ops = host.Host.ops in
  Ops.charge ops C.Syscall_entry ~unit:(`Bytes 0);
  (match (spec, Semantics.system_allocated sem) with
  | (App_buffer _, true) ->
    Vm.Vm_error.semantics
      "input with %s semantics returns the buffer location; pass Sys_alloc"
      (Semantics.name sem)
  | (Sys_alloc _, false) ->
    Vm.Vm_error.semantics "input with %s semantics requires an application buffer"
      (Semantics.name sem)
  | (App_buffer _, false) | (Sys_alloc _, true) -> ());
  (* Backpressure admission: prepare-stage work that demands frames right
     now — a system-allocated prepare (emulated or weak) maps and
     populates the target region, and a weak-integrity app-buffer
     prepare references the buffer in place, write-faulting in any page
     that is swapped out or never materialized.  Under exhaustion, try a
     pageout reclaim, then reject with `Again rather than letting
     [Out_of_frames] escape mid-operation.  (Conservative: cached
     regions and already-resident pages would make some of the frames
     unnecessary, but admission must not dequeue or resolve them
     speculatively.)  Strong app-buffer inputs allocate nothing at
     prepare and are always admitted. *)
  let prepare_demands_frames =
    if Semantics.system_allocated sem then
      sem.Semantics.emulated || sem.Semantics.integrity = Semantics.Weak
    else sem.Semantics.integrity = Semantics.Weak
  in
  (if prepare_demands_frames then
     let npages =
       match spec with
       | App_buffer b ->
         (* the exact page span the in-place reference walks *)
         let psize = Host.page_size host in
         ((b.Buf.addr mod psize) + b.Buf.len + psize - 1) / psize
       | Sys_alloc _ ->
         let span_len =
           match mode with
           | Net.Adapter.Early_demux -> spec_len spec
           | Net.Adapter.Pooled | Net.Adapter.Outboard ->
             Proto.Dgram_header.length + spec_len spec
         in
         pages_of host span_len
     in
     let phys = host.Host.vm.Vm.Vm_sys.phys in
     let admitted =
       Memory.Phys_mem.free_frames phys >= npages
       || (Host.reclaim_retry host ~target:(max 16 npages) ~why:"input.prepare"
           && Memory.Phys_mem.free_frames phys >= npages)
     in
     if not admitted then begin
       if Simcore.Tracer.on host.Host.scope then
         Simcore.Tracer.instant host.Host.scope "degrade.again"
           ~args:
             [
               ("where", Simcore.Tracer.Str "input.prepare");
               ("vc", Simcore.Tracer.Int vc);
               ("pages", Simcore.Tracer.Int npages);
             ];
       Simcore.Tracer.add_counter host.Host.scope "backpressure_rejects";
       raise_notrace Backpressure
     end);
  let p =
    { sem; spec; expected_len = spec_len spec; p_token = token; handle = None;
      region = None; hdr_frame = None; sys_frames = []; sys_off = 0;
      ledger_id = None; p_span = 0; on_complete }
  in
  if Simcore.Tracer.on host.Host.scope then
    p.p_span <-
      Simcore.Tracer.span_begin host.Host.scope "input.path"
        ~args:
          [
            ("vc", Simcore.Tracer.Int vc);
            ("sem", Simcore.Tracer.Str (Semantics.name sem));
            ("len", Simcore.Tracer.Int (spec_len spec));
          ];
  let strong = sem.Semantics.integrity = Semantics.Strong in
  (* Application-allocated, weak integrity (share / emulated share):
     reference the application pages for in-place input. *)
  if (not (Semantics.system_allocated sem)) && sem.Semantics.integrity = Semantics.Weak
  then begin
    let b = app_buffer p in
    let handle =
      Vm.Page_ref.reference b.Buf.space ~addr:b.Buf.addr ~len:b.Buf.len
        Vm.Page_ref.For_input
    in
    Ops.charge ops C.Reference ~unit:(`Pages (Vm.Page_ref.pages handle));
    p.handle <- Some handle;
    if not sem.Semantics.emulated then begin
      let region = Vm.Address_space.region_of_addr b.Buf.space ~vaddr:b.Buf.addr in
      let psize = Host.page_size host in
      let first = (b.Buf.addr / psize) - region.Vm.Region.start_vpn in
      let pages = Vm.Page_ref.pages handle in
      Ops.charge ops C.Wire ~unit:(`Pages pages);
      Vm.Address_space.wire_range b.Buf.space region ~first ~pages
    end
  end;
  (* System-allocated semantics other than basic move: find or allocate
     the target region (region caching / region hiding). *)
  if Semantics.system_allocated sem && (sem.Semantics.emulated || not strong)
  then begin
    let space = spec_space spec in
    let span =
      match mode with
      | Net.Adapter.Early_demux -> p.expected_len
      | Net.Adapter.Pooled | Net.Adapter.Outboard ->
        Proto.Dgram_header.length + p.expected_len
    in
    let npages = pages_of host span in
    let kind = if strong then Vm.Region.Moved_out else Vm.Region.Weakly_moved_out in
    let region =
      match Vm.Address_space.dequeue_cached space ~kind ~npages with
      | Some r -> r
      | None ->
        Ops.charge ops C.Region_create ~unit:(`Pages npages);
        let r = Vm.Address_space.map_region space ~npages ~state:Vm.Region.Moving_in in
        if strong then
          (* Hide the fresh region until dispose reinstates it. *)
          Vm.Address_space.invalidate space r ~first:0 ~pages:npages;
        r
    in
    Ops.charge ops C.Region_mark_in ~unit:(`Bytes 0);
    region.Vm.Region.state <- Vm.Region.Moving_in;
    let handle = Vm.Page_ref.reference_region space region ~len:span Vm.Page_ref.For_input in
    Ops.charge ops C.Reference ~unit:(`Pages (Vm.Page_ref.pages handle));
    p.region <- Some region;
    p.handle <- Some handle;
    if (not sem.Semantics.emulated) && not strong then begin
      Ops.charge ops C.Wire ~unit:(`Pages npages);
      Vm.Address_space.wire space region
    end
  end;
  p.ledger_id <-
    Some
      (Ledger.note host.Host.ledger ~dir:Ledger.Input ~sem ~space:(spec_space spec)
         ~region:(fun () -> p.region)
         ~handle:(fun () ->
           match p.handle with
           | Some h when h.Vm.Page_ref.active -> Some h
           | Some _ | None -> None));
  (* Early-demultiplexing descriptor: always prepared, per Section 6.2.2. *)
  let posted =
    match mode with
    | Net.Adapter.Pooled | Net.Adapter.Outboard -> None
    | Net.Adapter.Early_demux -> (
      match Host.pool_take_opt host with
      | None ->
        (* No overlay frame for the header descriptor: degrade this input
           to the pooled fallback path by not posting at all (the same
           path an unannounced buffer takes). *)
        if Simcore.Tracer.on host.Host.scope then
          Simcore.Tracer.instant host.Host.scope "degrade.nopool_hdr"
            ~args:[ ("vc", Simcore.Tracer.Int vc) ];
        Simcore.Tracer.add_counter host.Host.scope "demux_degrades";
        None
      | Some hdr_frame ->
        p.hdr_frame <- Some hdr_frame;
        let hdr_desc =
          Memory.Io_desc.single hdr_frame ~off:0 ~len:Proto.Dgram_header.length
        in
        let payload_desc, ready =
          match p.handle with
          | Some handle ->
            (* In-place: device writes straight into the referenced pages. *)
            (Some handle.Vm.Page_ref.desc, fun () -> handle.Vm.Page_ref.desc)
          | None ->
            (* Copy / emulated copy / move: the system buffer is allocated
               when the device first needs it (ready time, overlapped). *)
            ( None,
              fun () ->
                Simcore.Tracer.instant host.Host.scope "input.ready"
                  ~args:[ ("buffer", Simcore.Tracer.Str "aligned") ];
                Ops.charge ops C.Sysbuf_allocate ~unit:(`Bytes 0);
                let off =
                  if
                    Semantics.equal p.sem Semantics.emulated_copy
                    && host.Host.align_input
                  then Buf.page_offset (app_buffer p)
                  else 0
                in
                let npages = pages_of host (off + p.expected_len) in
                match Host.try_alloc_sys_frames host npages with
                | Some frames ->
                  p.sys_frames <- frames;
                  p.sys_off <- off;
                  frames_desc host frames ~off ~len:p.expected_len
                | None ->
                  (* Ready-time exhaustion (interrupt context — no one to
                     tell `Again): hand the device an empty descriptor;
                     the payload overruns it and the input completes as a
                     typed failure. *)
                  if Simcore.Tracer.on host.Host.scope then
                    Simcore.Tracer.instant host.Host.scope
                      "degrade.ready_nomem"
                      ~args:[ ("pages", Simcore.Tracer.Int npages) ];
                  Simcore.Tracer.add_counter host.Host.scope "ready_degrades";
                  Memory.Io_desc.of_segs [] )
        in
        Some { Net.Adapter.vc; token; hdr_desc; payload_desc; ready })
  in
  (p, posted)

(* {1 Shared dispose helpers} *)

let retire_entry (host : Host.t) p =
  match p.ledger_id with
  | Some id ->
    Ledger.retire host.Host.ledger id;
    p.ledger_id <- None
  | None -> ()

let status_of_ok ok : (unit, Outcome.drop) Stdlib.result =
  if ok then Ok () else Error `Crc_dropped

let finish (host : Host.t) p ~buf ~payload_len ~seq ~ok =
  if Simcore.Tracer.on host.Host.scope then
    Simcore.Tracer.instant host.Host.scope "input.complete"
      ~args:
        [
          ("sem", Simcore.Tracer.Str (Semantics.name p.sem));
          ("ok", Simcore.Tracer.Bool ok);
          ("len", Simcore.Tracer.Int payload_len);
        ];
  retire_entry host p;
  let result = { buf; payload_len; seq; status = status_of_ok ok } in
  let span = p.p_span in
  p.p_span <- 0;
  Simcore.Engine.at host.Host.engine ~time:(Ops.completion_time host.Host.ops)
    (fun () ->
      Simcore.Tracer.span_end host.Host.scope ~id:span "input.path";
      p.on_complete result)

let release_hdr_frame host p =
  match p.hdr_frame with
  | Some frame ->
    Host.pool_put host frame;
    p.hdr_frame <- None
  | None -> ()

let unref (host : Host.t) p =
  match p.handle with
  | Some handle ->
    Ops.charge host.Host.ops C.Unreference
      ~unit:(`Pages (Vm.Page_ref.pages handle));
    Vm.Page_ref.unreference handle;
    p.handle <- None
  | None -> ()

(* Region check: make sure the cached region survived; if the app removed
   it, re-home the pages (paper Section 6.2.1). *)
let checked_region (host : Host.t) p ~charge =
  let region = Option.get p.region in
  if charge then Ops.charge host.Host.ops C.Region_check ~unit:(`Bytes 0);
  let frames =
    match p.handle with Some h -> h.Vm.Page_ref.frames | None -> []
  in
  let space = spec_space p.spec in
  let region' = Vm.Address_space.ensure_region space region ~frames in
  p.region <- Some region';
  region'

let requeue_failed_region (_host : Host.t) p =
  (* Failed system-allocated input: put the cached region back instead of
     exposing possibly half-written data. *)
  match p.region with
  | None -> ()
  | Some region when not region.Vm.Region.valid -> ()
  | Some region ->
    let space = spec_space p.spec in
    let strong = p.sem.Semantics.integrity = Semantics.Strong in
    if strong then begin
      Vm.Address_space.invalidate space region ~first:0
        ~pages:region.Vm.Region.npages;
      region.Vm.Region.state <- Vm.Region.Moved_out
    end
    else region.Vm.Region.state <- Vm.Region.Weakly_moved_out;
    Vm.Address_space.cache_region space region

let region_result p (region : Vm.Region.t) ~psize ~off ~payload_len =
  let addr = (region.Vm.Region.start_vpn * psize) + off in
  Some (Buf.make (spec_space p.spec) ~addr ~len:payload_len)

(* Zero the bytes of [frames] outside [off, off+len) (move semantics must
   not leak stale data into the application). *)
let zero_complete (host : Host.t) frames ~off ~len =
  let psize = Host.page_size host in
  let total = List.length frames * psize in
  let zeroed = off + (total - (off + len)) in
  if zeroed > 0 then begin
    Ops.charge host.Host.ops C.Zero_fill ~unit:(`Bytes zeroed);
    List.iteri
      (fun i frame ->
        let lo = i * psize and hi = (i + 1) * psize in
        let zero_range a b =
          if b > a then
            Bytes.fill (Memory.Frame.data frame) (a - lo) (b - a) '\x00'
        in
        zero_range lo (min hi off);
        zero_range (max lo (off + len)) hi)
      frames
  end

(* {1 Dispose: early-demultiplexed and outboard-staged inputs (Table 3)} *)

let dispose_direct (host : Host.t) p ~payload_len ~seq ~ok =
  let ops = host.Host.ops in
  let psize = Host.page_size host in
  let strong = p.sem.Semantics.integrity = Semantics.Strong in
  match (Semantics.system_allocated p.sem, strong, p.sem.Semantics.emulated) with
  | (false, true, false) ->
    (* Copy: copy out of the system buffer. *)
    let b = app_buffer p in
    if ok then begin
      let desc = frames_desc host p.sys_frames ~off:p.sys_off ~len:payload_len in
      Vm.Address_space.write_iov b.Buf.space ~addr:b.Buf.addr
        (Memory.Io_desc.to_iovec desc);
      Ops.charge ops C.Copyout ~unit:(`Bytes payload_len)
    end;
    Ops.charge ops C.Sysbuf_deallocate ~unit:(`Bytes 0);
    Host.free_sys_frames host p.sys_frames;
    p.sys_frames <- [];
    finish host p ~buf:(if ok then Some { b with Buf.len = payload_len } else None)
      ~payload_len ~seq ~ok
  | (false, true, true) ->
    (* Emulated copy: swap pages / reverse copyout from the aligned
       system buffer. *)
    let b = app_buffer p in
    let frames = Array.of_list p.sys_frames in
    let dead = ref [] in
    if ok && payload_len > 0 then begin
      let outcome =
        Align.deliver ops ~buf:b ~payload_len ~src_frames:frames
          ~src_off:p.sys_off
          ~threshold:host.Host.thresholds.Thresholds.reverse_copyout
          ~displaced:(fun f -> dead := f :: !dead)
      in
      let leftovers =
        List.filteri (fun i _ -> not outcome.Align.consumed.(i)) p.sys_frames
      in
      Host.frames_to_vm host
        (List.filteri (fun i _ -> outcome.Align.consumed.(i)) p.sys_frames);
      Host.free_sys_frames host (leftovers @ !dead)
    end
    else Host.free_sys_frames host p.sys_frames;
    p.sys_frames <- [];
    finish host p ~buf:(if ok then Some { b with Buf.len = payload_len } else None)
      ~payload_len ~seq ~ok
  | (false, false, emulated) ->
    (* Share / emulated share: data arrived in place. *)
    let b = app_buffer p in
    if not emulated then begin
      let region = Vm.Address_space.region_of_addr b.Buf.space ~vaddr:b.Buf.addr in
      let first = (b.Buf.addr / psize) - region.Vm.Region.start_vpn in
      let pages = Buf.pages b in
      Ops.charge ops C.Unwire ~unit:(`Pages pages);
      Vm.Address_space.unwire_range b.Buf.space region ~first ~pages
    end;
    unref host p;
    finish host p ~buf:(if ok then Some { b with Buf.len = payload_len } else None)
      ~payload_len ~seq ~ok
  | (true, true, false) ->
    (* Move: build a fresh region around the input pages. *)
    if ok then begin
      let npages = pages_of host (max payload_len 1) in
      let used, extra =
        let rec split i acc = function
          | f :: rest when i < npages -> split (i + 1) (f :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        split 0 [] p.sys_frames
      in
      Host.free_sys_frames host extra;
      Host.frames_to_vm host used;
      zero_complete host used ~off:0 ~len:payload_len;
      let space = spec_space p.spec in
      Ops.charge ops C.Region_create ~unit:(`Pages npages);
      let region =
        Vm.Address_space.map_region space ~npages ~state:Vm.Region.Moving_in
          ~populate:false
      in
      Ops.charge ops C.Region_fill ~unit:(`Pages npages);
      List.iteri
        (fun i frame ->
          Vm.Vm_sys.insert_page (Vm.Address_space.vm space) region.Vm.Region.obj
            i frame)
        used;
      Ops.charge ops C.Region_map ~unit:(`Pages npages);
      Vm.Address_space.map_object_pages space region;
      Ops.charge ops C.Region_mark_in ~unit:(`Bytes 0);
      region.Vm.Region.state <- Vm.Region.Moved_in;
      p.sys_frames <- [];
      finish host p
        ~buf:(region_result p region ~psize ~off:0 ~payload_len)
        ~payload_len ~seq ~ok
    end
    else begin
      Host.free_sys_frames host p.sys_frames;
      p.sys_frames <- [];
      finish host p ~buf:None ~payload_len ~seq ~ok
    end
  | (true, true, true) ->
    (* Emulated move: reinstate the hidden region. *)
    if ok then begin
      Ops.charge ops C.Region_check_unref_reinstate_mark_in
        ~unit:(`Pages (pages_of host (max payload_len 1)));
      let region = checked_region host p ~charge:false in
      (match p.handle with
      | Some h -> Vm.Page_ref.unreference h
      | None -> ());
      p.handle <- None;
      let space = spec_space p.spec in
      Vm.Address_space.reinstate space region;
      region.Vm.Region.state <- Vm.Region.Moved_in;
      finish host p
        ~buf:(region_result p region ~psize ~off:0 ~payload_len)
        ~payload_len ~seq ~ok
    end
    else begin
      unref host p;
      requeue_failed_region host p;
      finish host p ~buf:None ~payload_len ~seq ~ok
    end
  | (true, false, emulated) ->
    (* Weak move / emulated weak move. *)
    if ok then begin
      let region = checked_region host p ~charge:(not emulated) in
      let space = spec_space p.spec in
      if emulated then begin
        Ops.charge ops C.Region_check_unref_mark_in
          ~unit:(`Pages (pages_of host (max payload_len 1)));
        (match p.handle with
        | Some h -> Vm.Page_ref.unreference h
        | None -> ());
        p.handle <- None
      end
      else begin
        Ops.charge ops C.Unwire ~unit:(`Pages region.Vm.Region.npages);
        Vm.Address_space.unwire space region;
        unref host p;
        Ops.charge ops C.Region_mark_in ~unit:(`Bytes 0)
      end;
      region.Vm.Region.state <- Vm.Region.Moved_in;
      finish host p
        ~buf:(region_result p region ~psize ~off:0 ~payload_len)
        ~payload_len ~seq ~ok
    end
    else begin
      (match p.region with
      | Some region when (not p.sem.Semantics.emulated) && region.Vm.Region.wired > 0 ->
        Vm.Address_space.unwire (spec_space p.spec) region
      | Some _ | None -> ());
      unref host p;
      requeue_failed_region host p;
      finish host p ~buf:None ~payload_len ~seq ~ok
    end

(* {1 Dispose: pooled in-host buffering (Table 4)} *)

(* Refill the overlay pool after its pages became application memory.
   Under frame exhaustion the refill is allowed to come up short — the
   pool shrinks (and grows back through borrows) instead of raising. *)
let refill_pool (host : Host.t) n =
  let phys = host.Host.vm.Vm.Vm_sys.phys in
  let avail = min n (Memory.Phys_mem.free_frames phys) in
  if avail < n then begin
    if Simcore.Tracer.on host.Host.scope then
      Simcore.Tracer.instant host.Host.scope "pool.refill_short"
        ~args:
          [
            ("wanted", Simcore.Tracer.Int n);
            ("got", Simcore.Tracer.Int avail);
          ];
    Simcore.Tracer.add_counter host.Host.scope "pool_refill_shorts"
  end;
  List.iter (fun f -> Host.pool_put host f) (Memory.Phys_mem.alloc_many phys avail)

let dispose_pooled (host : Host.t) p ~chain ~hdr_len ~payload_len ~seq ~ok =
  let ops = host.Host.ops in
  let psize = Host.page_size host in
  (* Ready-time operations for pooled buffering are driver work performed
     at interrupt time: build the overlay chain, account the pool. *)
  Ops.charge ops C.Overlay_allocate ~unit:(`Bytes 0);
  Ops.charge ops C.Overlay ~unit:(`Bytes 0);
  let chain_pages = List.length chain in
  let chain_bytes = chain_pages * psize in
  let charge_overlay_dealloc () =
    Ops.charge ops C.Overlay_deallocate ~unit:(`Bytes chain_bytes)
  in
  let pool_all frames = List.iter (fun f -> Host.pool_put host f) frames in
  let deliver_to_app b =
    (* Swap if the application aligned its buffer to the unstripped
       header, copy out otherwise. *)
    let frames = Array.of_list chain in
    let outcome =
      Align.deliver ops ~buf:b ~payload_len ~src_frames:frames ~src_off:hdr_len
        ~threshold:host.Host.thresholds.Thresholds.reverse_copyout
        ~displaced:(fun f -> Host.pool_put host f)
    in
    Host.frames_to_vm host
      (List.filteri (fun i _ -> outcome.Align.consumed.(i)) chain);
    let leftovers = List.filteri (fun i _ -> not outcome.Align.consumed.(i)) chain in
    pool_all leftovers
  in
  let strong = p.sem.Semantics.integrity = Semantics.Strong in
  match (Semantics.system_allocated p.sem, strong, p.sem.Semantics.emulated) with
  | (false, true, false) ->
    (* Copy. *)
    let b = app_buffer p in
    if ok then begin
      let desc = frames_desc host chain ~off:hdr_len ~len:payload_len in
      Vm.Address_space.write_iov b.Buf.space ~addr:b.Buf.addr
        (Memory.Io_desc.to_iovec desc);
      Ops.charge ops C.Copyout ~unit:(`Bytes payload_len)
    end;
    charge_overlay_dealloc ();
    pool_all chain;
    finish host p ~buf:(if ok then Some { b with Buf.len = payload_len } else None)
      ~payload_len ~seq ~ok
  | (false, true, true) ->
    (* Emulated copy. *)
    let b = app_buffer p in
    if ok && payload_len > 0 then deliver_to_app b else pool_all chain;
    charge_overlay_dealloc ();
    finish host p ~buf:(if ok then Some { b with Buf.len = payload_len } else None)
      ~payload_len ~seq ~ok
  | (false, false, emulated) ->
    (* Share / emulated share. *)
    let b = app_buffer p in
    if not emulated then begin
      let region = Vm.Address_space.region_of_addr b.Buf.space ~vaddr:b.Buf.addr in
      let first = (b.Buf.addr / psize) - region.Vm.Region.start_vpn in
      let pages = Buf.pages b in
      Ops.charge ops C.Unwire ~unit:(`Pages pages);
      Vm.Address_space.unwire_range b.Buf.space region ~first ~pages
    end;
    unref host p;
    if ok && payload_len > 0 then deliver_to_app b else pool_all chain;
    charge_overlay_dealloc ();
    finish host p ~buf:(if ok then Some { b with Buf.len = payload_len } else None)
      ~payload_len ~seq ~ok
  | (true, true, false) ->
    (* Move: the overlay pages themselves become the new region; the pool
       is refilled with fresh frames to avoid depletion. *)
    if ok then begin
      zero_complete host chain ~off:hdr_len ~len:payload_len;
      let space = spec_space p.spec in
      Ops.charge ops C.Region_create ~unit:(`Pages chain_pages);
      let region =
        Vm.Address_space.map_region space ~npages:chain_pages
          ~state:Vm.Region.Moving_in ~populate:false
      in
      Ops.charge ops C.Region_fill_overlay_refill ~unit:(`Pages chain_pages);
      Host.frames_to_vm host chain;
      List.iteri
        (fun i frame ->
          Vm.Vm_sys.insert_page (Vm.Address_space.vm space) region.Vm.Region.obj
            i frame)
        chain;
      refill_pool host chain_pages;
      Ops.charge ops C.Region_map ~unit:(`Pages chain_pages);
      Vm.Address_space.map_object_pages space region;
      Ops.charge ops C.Region_mark_in ~unit:(`Bytes 0);
      region.Vm.Region.state <- Vm.Region.Moved_in;
      charge_overlay_dealloc ();
      finish host p
        ~buf:(region_result p region ~psize ~off:hdr_len ~payload_len)
        ~payload_len ~seq ~ok
    end
    else begin
      pool_all chain;
      charge_overlay_dealloc ();
      finish host p ~buf:None ~payload_len ~seq ~ok
    end
  | (true, _, _) ->
    (* Emulated move, weak move, emulated weak move: swap the overlay
       pages into the cached region (an exchange, so the pool level is
       preserved). *)
    if ok then begin
      let region = checked_region host p ~charge:true in
      let space = spec_space p.spec in
      if (not p.sem.Semantics.emulated) && not strong then begin
        Ops.charge ops C.Unwire ~unit:(`Pages region.Vm.Region.npages);
        Vm.Address_space.unwire space region
      end;
      unref host p;
      if chain_pages <= region.Vm.Region.npages then begin
        Ops.charge ops C.Swap_pages ~unit:(`Pages chain_pages);
        Host.frames_to_vm host chain;
        List.iteri
          (fun i frame ->
            match Vm.Address_space.swap_into_region space region ~page:i frame with
            | Some displaced -> Host.pool_put host displaced
            | None -> ())
          chain;
        (* A strong region was hidden at prepare; pages beyond the
           swapped chain are still invalidated and must be reinstated
           before the region is exposed as moved in. *)
        if strong then Vm.Address_space.reinstate space region;
        Ops.charge ops C.Region_mark_in ~unit:(`Bytes 0);
        region.Vm.Region.state <- Vm.Region.Moved_in;
        charge_overlay_dealloc ();
        finish host p
          ~buf:(region_result p region ~psize ~off:hdr_len ~payload_len)
          ~payload_len ~seq ~ok
      end
      else begin
        (* Pooled fallback on an early-demultiplexed VC: the region
           prepared at input time is sized for the payload alone, but the
           fallback chain carries the unstripped header too and may not
           fit.  Recycle the prepared region and make the chain itself
           the new region, as basic move does. *)
        requeue_failed_region host p;
        zero_complete host chain ~off:hdr_len ~len:payload_len;
        Ops.charge ops C.Region_create ~unit:(`Pages chain_pages);
        let fresh =
          Vm.Address_space.map_region space ~npages:chain_pages
            ~state:Vm.Region.Moving_in ~populate:false
        in
        Ops.charge ops C.Region_fill_overlay_refill ~unit:(`Pages chain_pages);
        Host.frames_to_vm host chain;
        List.iteri
          (fun i frame ->
            Vm.Vm_sys.insert_page (Vm.Address_space.vm space)
              fresh.Vm.Region.obj i frame)
          chain;
        refill_pool host chain_pages;
        Ops.charge ops C.Region_map ~unit:(`Pages chain_pages);
        Vm.Address_space.map_object_pages space fresh;
        Ops.charge ops C.Region_mark_in ~unit:(`Bytes 0);
        fresh.Vm.Region.state <- Vm.Region.Moved_in;
        p.region <- Some fresh;
        charge_overlay_dealloc ();
        finish host p
          ~buf:(region_result p fresh ~psize ~off:hdr_len ~payload_len)
          ~payload_len ~seq ~ok
      end
    end
    else begin
      (match p.region with
      | Some region when (not p.sem.Semantics.emulated) && region.Vm.Region.wired > 0 ->
        Vm.Address_space.unwire (spec_space p.spec) region
      | Some _ | None -> ());
      unref host p;
      requeue_failed_region host p;
      pool_all chain;
      charge_overlay_dealloc ();
      finish host p ~buf:None ~payload_len ~seq ~ok
    end

(* {1 Dispose: outboard staging (Section 6.2.3)} *)

let dma_delay (host : Host.t) ~bytes =
  let rate = (Net.Adapter.params host.Host.adapter).Net.Net_params.pci_ns_per_byte in
  Simcore.Sim_time.of_ns (int_of_float (Float.round (rate *. float_of_int bytes)))

let dispose_outboard (host : Host.t) p ~id ~hdr_len ~payload_len ~seq ~ok =
  let ops = host.Host.ops in
  let adapter = host.Host.adapter in
  let engine = host.Host.engine in
  if Semantics.equal p.sem Semantics.emulated_copy then begin
    (* Emulated copy with outboard buffering degenerates to (strong)
       in-place transfer: reference, DMA straight into the application
       buffer, unreference. *)
    if ok then begin
      let b = app_buffer p in
      let handle =
        Vm.Page_ref.reference b.Buf.space ~addr:b.Buf.addr ~len:b.Buf.len
          Vm.Page_ref.For_input
      in
      Ops.charge ops C.Reference ~unit:(`Pages (Vm.Page_ref.pages handle));
      let data = Net.Adapter.outboard_read adapter ~id ~off:hdr_len ~len:payload_len in
      let dma = dma_delay host ~bytes:payload_len in
      if Simcore.Tracer.on host.Host.scope then
        Simcore.Tracer.complete host.Host.scope "input.dma"
          ~start:(Simcore.Engine.now engine)
          ~dur:dma
          ~args:[ ("bytes", Simcore.Tracer.Int payload_len) ];
      Simcore.Engine.schedule engine ~delay:dma
        (fun () ->
          Memory.Io_desc.scatter handle.Vm.Page_ref.desc ~off:0 ~src:data
            ~src_off:0 ~len:payload_len;
          Ops.charge ops C.Unreference ~unit:(`Pages (Vm.Page_ref.pages handle));
          Vm.Page_ref.unreference handle;
          Net.Adapter.outboard_free adapter ~id;
          finish host p ~buf:(Some { b with Buf.len = payload_len })
            ~payload_len ~seq ~ok)
    end
    else begin
      Net.Adapter.outboard_free adapter ~id;
      finish host p ~buf:None ~payload_len ~seq ~ok
    end
  end
  else begin
    (* All other semantics: run the Table 3 ready operations, DMA the
       staged data to the prepared host target, then dispose as if the
       input had been early-demultiplexed. *)
    let needs_sys_buffer =
      (not (Semantics.in_place p.sem))
      || Semantics.equal p.sem Semantics.move
    in
    if needs_sys_buffer && p.sys_frames = [] then begin
      Ops.charge ops C.Sysbuf_allocate ~unit:(`Bytes 0);
      match Host.try_alloc_sys_frames host (pages_of host (max payload_len 1)) with
      | Some frames ->
        p.sys_frames <- frames;
        p.sys_off <- 0
      | None ->
        (* No system buffer obtainable: the staged data is discarded and
           the input completes as a typed failure below (target_desc stays
           [None]). *)
        if Simcore.Tracer.on host.Host.scope then
          Simcore.Tracer.instant host.Host.scope "degrade.ready_nomem"
            ~args:[ ("pages", Simcore.Tracer.Int (pages_of host (max payload_len 1))) ];
        Simcore.Tracer.add_counter host.Host.scope "ready_degrades"
    end;
    let target_desc =
      match p.handle with
      | Some handle -> Some handle.Vm.Page_ref.desc
      | None when p.sys_frames <> [] ->
        Some (frames_desc host p.sys_frames ~off:p.sys_off ~len:payload_len)
      | None -> None
    in
    match (ok, target_desc) with
    | (true, Some desc) ->
      let len = min payload_len (Memory.Io_desc.total_len desc) in
      let data = Net.Adapter.outboard_read adapter ~id ~off:hdr_len ~len in
      let dma = dma_delay host ~bytes:len in
      if Simcore.Tracer.on host.Host.scope then
        Simcore.Tracer.complete host.Host.scope "input.dma"
          ~start:(Simcore.Engine.now engine)
          ~dur:dma
          ~args:[ ("bytes", Simcore.Tracer.Int len) ];
      Simcore.Engine.schedule engine ~delay:dma (fun () ->
          Memory.Io_desc.scatter desc ~off:0 ~src:data ~src_off:0 ~len;
          Net.Adapter.outboard_free adapter ~id;
          dispose_direct host p ~payload_len ~seq ~ok)
    | (true, None) | (false, _) ->
      Net.Adapter.outboard_free adapter ~id;
      dispose_direct host p ~payload_len ~seq ~ok:false
  end

(* {1 Completion dispatch} *)

let handle_completion (host : Host.t) p (r : Net.Adapter.rx_result) =
  let ops = host.Host.ops in
  if Simcore.Tracer.on host.Host.scope then
    Simcore.Tracer.instant host.Host.scope "input.dispose"
      ~args:[ ("sem", Simcore.Tracer.Str (Semantics.name p.sem)) ];
  Ops.charge ops C.Interrupt_dispatch ~unit:(`Bytes 0);
  let hdr_len = Proto.Dgram_header.length in
  let hdr_bytes, payload_len =
    match r.Net.Adapter.completion with
    | Net.Adapter.Demuxed { posted; payload_len; _ } ->
      (Memory.Io_desc.gather posted.Net.Adapter.hdr_desc ~off:0 ~len:hdr_len,
       payload_len)
    | Net.Adapter.Pooled_chain { frames = []; hdr_len = _; payload_len } ->
      (* Chain dropped at the adapter (overlay pool exhausted mid-PDU):
         no header bytes to decode; completes as a typed failure. *)
      (Bytes.empty, payload_len)
    | Net.Adapter.Pooled_chain { frames; hdr_len = h; payload_len } ->
      let desc = frames_desc host frames ~off:0 ~len:h in
      (Memory.Io_desc.gather desc ~off:0 ~len:h, payload_len)
    | Net.Adapter.Outboard_stored { id; hdr_len = h; payload_len } ->
      (Net.Adapter.outboard_read host.Host.adapter ~id ~off:0 ~len:h, payload_len)
  in
  let seq, hdr_ok =
    match Proto.Dgram_header.decode hdr_bytes with
    | Ok h -> (h.Proto.Dgram_header.seq, h.Proto.Dgram_header.payload_len = payload_len)
    | Error _ -> (-1, false)
  in
  let overrun =
    match r.Net.Adapter.completion with
    | Net.Adapter.Demuxed { overrun; _ } -> overrun
    | Net.Adapter.Pooled_chain _ | Net.Adapter.Outboard_stored _ -> false
  in
  let ok =
    r.Net.Adapter.crc_ok && hdr_ok && (not overrun)
    && payload_len <= p.expected_len
  in
  release_hdr_frame host p;
  match r.Net.Adapter.completion with
  | Net.Adapter.Demuxed _ -> dispose_direct host p ~payload_len ~seq ~ok
  | Net.Adapter.Pooled_chain { frames; hdr_len; payload_len = _ } ->
    dispose_pooled host p ~chain:frames ~hdr_len ~payload_len ~seq ~ok
  | Net.Adapter.Outboard_stored { id; hdr_len; payload_len = _ } ->
    dispose_outboard host p ~id ~hdr_len ~payload_len ~seq ~ok

let abandon (host : Host.t) p =
  if Simcore.Tracer.on host.Host.scope then begin
    Simcore.Tracer.instant host.Host.scope "input.cancel"
      ~args:[ ("sem", Simcore.Tracer.Str (Semantics.name p.sem)) ];
    Simcore.Tracer.span_end host.Host.scope ~id:p.p_span "input.path"
      ~args:[ ("cancelled", Simcore.Tracer.Bool true) ];
    p.p_span <- 0
  end;
  (* Undo prepare-time wiring: share wires the application pages, weak
     move the system region; a cancelled input must leave neither. *)
  if
    (not (Semantics.system_allocated p.sem))
    && p.sem.Semantics.integrity = Semantics.Weak
    && not p.sem.Semantics.emulated
  then begin
    let b = app_buffer p in
    let region = Vm.Address_space.region_of_addr b.Buf.space ~vaddr:b.Buf.addr in
    let first = (b.Buf.addr / Host.page_size host) - region.Vm.Region.start_vpn in
    Vm.Address_space.unwire_range b.Buf.space region ~first ~pages:(Buf.pages b)
  end;
  (match p.region with
  | Some region when (not p.sem.Semantics.emulated) && region.Vm.Region.wired > 0 ->
    Vm.Address_space.unwire (spec_space p.spec) region
  | Some _ | None -> ());
  (match p.handle with
  | Some h ->
    Vm.Page_ref.unreference h;
    p.handle <- None
  | None -> ());
  Host.free_sys_frames host p.sys_frames;
  p.sys_frames <- [];
  release_hdr_frame host p;
  requeue_failed_region host p;
  retire_entry host p
