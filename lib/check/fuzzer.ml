(* Randomized fault-schedule fuzzer.  All scheduling decisions come from
   one Simcore.Rng stream, and the simulation itself is deterministic, so
   a config reproduces a run bit-for-bit. *)

module R = Simcore.Rng
module Sem = Genie.Semantics

type config = {
  seed : int;
  steps : int;
  check_every : int;
  pool_frames : int;
  memory_mb : int;
  max_in_flight : int;
  trace_tail : int;
  exhaustion : bool;
  link_faults : bool;
  batch : bool;
  storage : bool;
  fabric : bool;
  adapt : bool;
}

let default_config =
  {
    seed = 1;
    steps = 2000;
    check_every = 1;
    pool_frames = 128;
    memory_mb = 32;
    max_in_flight = 6;
    trace_tail = 48;
    exhaustion = true;
    link_faults = true;
    batch = true;
    storage = true;
    fabric = true;
    adapt = true;
  }

type stop_reason = Completed | Violations of Invariants.violation list

type outcome = {
  steps_run : int;
  stop : stop_reason;
  schedule : string list;
  transfers_started : int;
  transfers_completed : int;
  faults_injected : int;
  rejected : int;
  rel_sessions : int;
  storage_ops : int;
  fabric_ops : int;
  events : (string * int) list;
  trace_tail : string list;
  digest : string;
}

(* The typed pressure/fault events the run is audited against; every
   counter both hosts bumped under these names is reported in
   [outcome.events]. *)
let event_keys =
  [
    "sem_fallbacks";
    "backpressure_rejects";
    "reclaims";
    "pool_borrows";
    "pool_refill_shorts";
    "demux_degrades";
    "ready_degrades";
    "rx_drop_nopool";
    "pdu_drops";
    "pdu_corrupts";
    "pdu_dups";
    "pdu_delays";
    "rel_retransmits";
    "rel_recoveries";
    "rel_gave_ups";
    "rel_deadline_cancels";
    "ring_cq_overflows";
    (* adaptation regime: the online semantics controller *)
    "adapt_epochs";
    "adapt_migrations";
    (* storage regime: page cache and block device *)
    "cache_hits";
    "cache_misses";
    "writebacks";
    "readaheads";
    "fsyncs";
    "cache_evictions";
    "wb_throttles";
    "store_rejects";
    "disk_reads";
    "disk_writes";
    "disk_seeks";
  ]

(* An application-allocated output buffer: candidate for mid-flight pokes
   (the TCOW probe) while in flight, for removal once disposed. *)
type app_out = {
  ao_id : int;
  ao_buf : Genie.Buf.t;
  ao_region : Vm.Region.t;
  mutable ao_done : bool;
}

(* One simulated file under the storage regime, audited against a flat
   byte-array model.  [sf_busy] serializes operations per file: the
   cache itself supports concurrent I/O, but the audit needs a stable
   expected image per in-flight operation. *)
type sfile = {
  sf_fd : int;
  mutable sf_model : Bytes.t;
  mutable sf_busy : bool;
}

type storage = {
  st_fio : Genie.File_io.t;
  st_files : sfile array;
  st_ep : Genie.Endpoint.t;
      (* this side's endpoint on the storage VC: source of its sendfile
         datagrams, sink for the peer's *)
  mutable st_sendfile_busy : bool;
      (* one sendfile in flight per side, so preposted inputs on the
         peer pair with transmissions in order *)
}

type side = {
  s_host : Genie.Host.t;
  s_space : Vm.Address_space.t;
  s_eps : (int * Genie.Endpoint.t) list;
  mutable s_app_outs : app_out list;
  (* completed system-allocated inputs: Moved_in regions the application
     now owns, reusable as outputs or deallocatable *)
  mutable s_sys_ready : (Genie.Buf.t * Vm.Region.t) list;
  (* application regions whose I/O finished and may be removed *)
  mutable s_freeable : Vm.Region.t list;
}

(* Transfer sizes straddling the paper's emulation thresholds (280 for
   share, 1666 for move, 2178 for weak move on the P166) plus page-size
   edges and multi-page PDUs. *)
let sizes =
  [
    1; 100; 279; 280; 281; 1000; 1665; 1666; 1667; 2177; 2178; 2179; 4095;
    4096; 4097; 8192; 12288; 16384;
  ]

let vcs = [ (1, Net.Adapter.Early_demux); (2, Net.Adapter.Pooled); (3, Net.Adapter.Outboard) ]

(* The reliable-transport session rides its own VC pair so its go-back-N
   sequence numbers never mix with the datagram traffic. *)
let rel_data_vc = 4
let rel_ack_vc = 5

(* Sendfile traffic rides its own fault-free VC: a dropped or corrupted
   file datagram would strand its preposted input, which the
   transfer-accounting audit must keep flagging as a bug elsewhere. *)
let store_vc = 6

(* A deliberately small cache with a fast flusher: three 64-page files
   per side against 48 frames keeps eviction, batched writeback and the
   throttled-completion regime all active within a short schedule. *)
let store_cache_config =
  {
    Store.Page_cache.default_config with
    Store.Page_cache.max_pages = 48;
    writeback_interval_us = 2_000.;
    dirty_high = 12;
    dirty_throttle = 18;
  }

let pick rng l = List.nth l (R.int rng ~bound:(List.length l))

let run ?trace cfg =
  (* Poison recycled memory for the whole run: frames get 0xAA at alloc
     and pooled staging buffers 0xA5 at give, so any path that reads
     stale or unfilled bytes corrupts a checksum instead of silently
     passing. *)
  let saved_frame_poison = !Memory.Phys_mem.debug_poison
  and saved_buf_poison = !Memory.Buf_pool.debug_poison in
  Memory.Phys_mem.debug_poison := true;
  Memory.Buf_pool.debug_poison := true;
  Fun.protect ~finally:(fun () ->
      Memory.Phys_mem.debug_poison := saved_frame_poison;
      Memory.Buf_pool.debug_poison := saved_buf_poison)
  @@ fun () ->
  let mspec =
    { Machine.Machine_spec.micron_p166 with memory_mb = cfg.memory_mb }
  in
  let w =
    Genie.World.create ?trace ~spec_a:mspec ~spec_b:mspec
      ~pool_frames:cfg.pool_frames ()
  in
  let host_a = w.Genie.World.a and host_b = w.Genie.World.b in
  Simcore.Tracer.enable host_a.Genie.Host.tracer;
  Simcore.Tracer.enable host_b.Genie.Host.tracer;
  let pairs =
    List.map (fun (vc, mode) -> (vc, Genie.World.endpoint_pair w ~vc ~mode)) vcs
  in
  let mk_side host eps =
    {
      s_host = host;
      s_space = Genie.Host.new_space host;
      s_eps = eps;
      s_app_outs = [];
      s_sys_ready = [];
      s_freeable = [];
    }
  in
  let side_a = mk_side host_a (List.map (fun (vc, (ea, _)) -> (vc, ea)) pairs) in
  let side_b = mk_side host_b (List.map (fun (vc, (_, eb)) -> (vc, eb)) pairs) in
  let psize = Genie.Host.page_size host_a in
  (* Storage regime state: one File_io per host (cache frames drawn from
     the same exhaustion-aware allocator the network paths use), three
     files per side, and a dedicated endpoint pair for sendfile. *)
  let storage_a, storage_b =
    if not cfg.storage then (None, None)
    else begin
      let ea, eb =
        Genie.World.endpoint_pair w ~vc:store_vc ~mode:Net.Adapter.Early_demux
      in
      let mk side ep =
        let fio =
          Genie.File_io.create ~config:store_cache_config side.s_host
        in
        let st_files =
          Array.init 3 (fun _ ->
              {
                sf_fd = Genie.File_io.open_file fio;
                sf_model = Bytes.create 0;
                sf_busy = false;
              })
        in
        Some { st_fio = fio; st_files; st_ep = ep; st_sendfile_busy = false }
      in
      (mk side_a ea, mk side_b eb)
    end
  in
  let storage_of side = if side == side_a then storage_a else storage_b in
  let storage_ops = ref 0 in
  let rng = R.create ~seed:cfg.seed in
  let schedule = ref [] in
  let started = ref 0 and completed = ref 0 and faults = ref 0 in
  let live = ref 0 and orphans = ref 0 and dups = ref 0 in
  let rejected = ref 0 in
  let note fmt =
    Printf.ksprintf
      (fun s ->
        schedule :=
          Printf.sprintf "[t=%8.2fus] %s" (Genie.Host.now_us host_a) s :: !schedule)
      fmt
  in
  let pages_for off len = (off + len + psize - 1) / psize in
  let pick_side () = if R.int rng ~bound:2 = 0 then side_a else side_b in
  let sname side = side.s_host.Genie.Host.name in

  (* --- the adaptation regime ---------------------------------------- *)

  (* One online controller on host a: every a->b datagram the schedule
     sends runs on whatever semantics the controller currently holds
     (its output still mixes with the randomly-drawn b->a traffic, link
     faults, exhaustion hogs and mid-run workload shifts), so a
     migration can land at any point of the chaos.  The draws for the
     overridden semantics still happen, keeping the rng stream aligned
     with [adapt = false] runs.  Evidence is noted at submit time from
     the driver, which runs between engine slices. *)
  let adapt_config =
    {
      Genie.Adapt.default_config with
      epoch_datagrams = 8;
      window_epochs = 2;
      dwell_epochs = 2;
    }
  in
  let adapt_ctl =
    if not cfg.adapt then None
    else
      Some
        (Genie.Adapt.create ~config:adapt_config ~host:host_a
           ~scheme:Genie.Stage_cost.Early_demux ~sem:Sem.copy ())
  in
  let adapt_sem drawn =
    match adapt_ctl with
    | Some ctl -> Genie.Adapt.semantics ctl
    | None -> drawn
  in
  let adapt_note ~len =
    match adapt_ctl with
    | Some ctl -> Genie.Adapt.note_datagram ctl ~len
    | None -> ()
  in
  (* Mid-run workload shifts: the transfer-size population jumps from
     mixed to large-only to small-only at the third marks, forcing the
     controller to re-migrate while everything else keeps firing. *)
  let cur_sizes = ref sizes in
  let shift_workload i =
    if cfg.adapt then
      if i = cfg.steps / 3 then begin
        cur_sizes := List.filter (fun s -> s >= 2178) sizes;
        note "workload shift: large datagrams only"
      end
      else if i = 2 * cfg.steps / 3 then begin
        cur_sizes := List.filter (fun s -> s <= 1000) sizes;
        note "workload shift: small datagrams only"
      end
  in

  (* --- delivery audits ---------------------------------------------- *)

  (* Violations found by the fuzzer's own cross-cutting audits (byte
     integrity of deliveries, transfer accounting at quiescence); merged
     with the invariant catalogue's findings at every check. *)
  let audit = ref [] in
  let audit_violation ~invariant ~host ~subject fmt =
    Printf.ksprintf
      (fun detail -> audit := { Invariants.invariant; host; subject; detail } :: !audit)
      fmt
  in
  (* transfer id -> payload length, for every output that was accepted;
     [tainted] marks ids whose source buffer the application poked, so
     their delivered bytes are legitimately unpredictable. *)
  let sent_meta : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let tainted : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* Batched-path bookkeeping, resolved at reap time: accepted batched
     outputs awaiting their [Out_complete] (transfer id -> app buffer to
     mark done) and accepted batched inputs awaiting [In_complete]
     ((host, vc, token) -> completion continuation). *)
  let out_waiting : (int, app_out) Hashtbl.t = Hashtbl.create 32 in
  let in_waiting :
      (string * int * int, Genie.Input_path.result -> unit) Hashtbl.t =
    Hashtbl.create 32
  in
  (* Degradation must never corrupt what it delivers: any completed input
     claiming [ok] whose buffer covers the full payload of a known,
     untainted transfer must hold exactly the sent pattern. *)
  let audit_delivery host (res : Genie.Input_path.result) =
    if Genie.Input_path.ok res && res.Genie.Input_path.seq >= 0 then
      match
        (res.Genie.Input_path.buf, Hashtbl.find_opt sent_meta res.Genie.Input_path.seq)
      with
      | Some b, Some slen
        when slen = res.Genie.Input_path.payload_len
             && b.Genie.Buf.len = slen
             && not (Hashtbl.mem tainted res.Genie.Input_path.seq) ->
          let got = Genie.Buf.read b in
          let want =
            Genie.Buf.expected_pattern ~len:slen ~seed:res.Genie.Input_path.seq
          in
          if not (Bytes.equal got want) then
            audit_violation ~invariant:"byte-integrity"
              ~host:host.Genie.Host.name
              ~subject:(Printf.sprintf "transfer#%d" res.Genie.Input_path.seq)
              "delivered %d bytes do not match the sent pattern" slen
      | _ -> ()
  in

  (* --- actions ------------------------------------------------------ *)

  let do_run () =
    let us = 1 + R.int rng ~bound:250 in
    Genie.World.run_for w (Simcore.Sim_time.of_us (float_of_int us));
    note "run %dus" us
  in

  let app_buffer side len =
    let off = if R.int rng ~bound:4 = 0 then R.int rng ~bound:psize else 0 in
    let r = Vm.Address_space.map_region side.s_space ~npages:(pages_for off len) in
    let base = Vm.Address_space.base_addr r ~page_size:psize in
    (r, Genie.Buf.make side.s_space ~addr:(base + off) ~len)
  in

  (* --- the storage regime ------------------------------------------- *)

  (* Files are capped at 64 pages; three per side against a 48-frame
     cache keeps capacity eviction live for the whole run. *)
  let file_cap = 64 * psize in
  let model_write f ~off data =
    let len = Bytes.length data in
    let need = off + len in
    if Bytes.length f.sf_model < need then begin
      let m = Bytes.make need '\000' in
      Bytes.blit f.sf_model 0 m 0 (Bytes.length f.sf_model);
      f.sf_model <- m
    end;
    Bytes.blit data 0 f.sf_model off len
  in
  let quiet_files st =
    Array.to_list st.st_files |> List.filter (fun f -> not f.sf_busy)
  in
  let with_storage f =
    let side = pick_side () in
    match storage_of side with
    | None -> note "skip storage action: regime off"
    | Some st -> f side st
  in
  let do_store_write () =
    with_storage @@ fun side st ->
    match quiet_files st with
    | [] -> note "skip store write: all files busy on %s" (sname side)
    | fs ->
        let f = pick rng fs in
        let len = pick rng sizes in
        let off = R.int rng ~bound:(max 1 (file_cap - len)) in
        let seed = R.int rng ~bound:1_000_000 in
        let data = Genie.Buf.expected_pattern ~len ~seed in
        incr storage_ops;
        f.sf_busy <- true;
        (match
           Genie.File_io.write st.st_fio ~fd:f.sf_fd ~off ~data
             ~on_complete:(fun () -> f.sf_busy <- false)
         with
        | Ok () ->
            model_write f ~off data;
            note "store write %s fd=%d off=%d len=%d" (sname side) f.sf_fd off
              len
        | Error `Again ->
            f.sf_busy <- false;
            incr rejected;
            note "store write REJECTED (backpressure) %s fd=%d len=%d"
              (sname side) f.sf_fd len)
  in
  let do_store_read () =
    with_storage @@ fun side st ->
    match
      List.filter (fun f -> Bytes.length f.sf_model > 0) (quiet_files st)
    with
    | [] -> note "skip store read: no quiet non-empty file on %s" (sname side)
    | fs ->
        let f = pick rng fs in
        let size = Bytes.length f.sf_model in
        let off = R.int rng ~bound:size in
        let len = 1 + R.int rng ~bound:(min (size - off) (32 * psize)) in
        (* the file is quiet for the whole flight, so the model slice
           snapshotted here is exactly what the read must return *)
        let expected = Bytes.sub f.sf_model off len in
        incr storage_ops;
        f.sf_busy <- true;
        (match
           Genie.File_io.read st.st_fio ~fd:f.sf_fd ~off ~len
             ~on_complete:(fun got ->
               f.sf_busy <- false;
               if not (Bytes.equal got expected) then
                 audit_violation ~invariant:"byte-integrity" ~host:(sname side)
                   ~subject:(Printf.sprintf "file fd=%d" f.sf_fd)
                   "store read off=%d len=%d diverges from the flat-file model"
                   off len)
         with
        | Ok () ->
            note "store read %s fd=%d off=%d len=%d" (sname side) f.sf_fd off
              len
        | Error `Again ->
            f.sf_busy <- false;
            incr rejected;
            note "store read REJECTED (backpressure) %s fd=%d len=%d"
              (sname side) f.sf_fd len)
  in
  let do_store_fsync () =
    with_storage @@ fun side st ->
    match quiet_files st with
    | [] -> note "skip fsync: all files busy on %s" (sname side)
    | fs ->
        let f = pick rng fs in
        incr storage_ops;
        f.sf_busy <- true;
        Genie.File_io.fsync st.st_fio ~fd:f.sf_fd ~on_complete:(fun () ->
            f.sf_busy <- false);
        note "store fsync %s fd=%d" (sname side) f.sf_fd
  in
  let do_store_cachectl () =
    with_storage @@ fun side st ->
    incr storage_ops;
    if R.int rng ~bound:2 = 0 then begin
      let n = Genie.File_io.drop_caches st.st_fio in
      note "store drop_caches %s evicted=%d" (sname side) n
    end
    else begin
      Genie.File_io.writeback_now st.st_fio;
      note "store writeback kick %s" (sname side)
    end
  in
  let do_store_sendfile () =
    with_storage @@ fun side st ->
    let peer = if side == side_a then side_b else side_a in
    let pst =
      match storage_of peer with Some p -> p | None -> assert false
    in
    if st.st_sendfile_busy then
      note "skip sendfile: in flight on %s" (sname side)
    else
      match
        List.filter (fun f -> Bytes.length f.sf_model > 0) (quiet_files st)
      with
      | [] ->
          note "skip sendfile: no quiet non-empty file on %s" (sname side)
      | fs ->
          let f = pick rng fs in
          let size = Bytes.length f.sf_model in
          let cap = Net.Aal5.max_pdu - Proto.Dgram_header.length in
          let len = 1 + R.int rng ~bound:(min cap size) in
          let off = R.int rng ~bound:(size - len + 1) in
          let expected = Bytes.sub f.sf_model off len in
          (* prepost the receiving buffer on the peer's storage endpoint;
             app-buffer inputs never reject *)
          let r, buf = app_buffer peer len in
          let handle =
            match
              Genie.Endpoint.input pst.st_ep ~sem:Sem.emulated_copy
                ~spec:(Genie.Input_path.App_buffer buf)
                ~on_complete:(fun res ->
                  peer.s_freeable <- r :: peer.s_freeable;
                  (* A typed failure is a legitimate outcome under the
                     exhaustion regime — ready-time frame allocation can
                     fail and the input completes as a typed drop without
                     touching the flat-file model.  Only a delivery that
                     claims [ok] owes the model's exact bytes. *)
                  if
                    Genie.Input_path.ok res
                    && not
                         (res.Genie.Input_path.payload_len = len
                         && Bytes.equal (Genie.Buf.read buf) expected)
                  then
                    audit_violation ~invariant:"byte-integrity"
                      ~host:(sname peer)
                      ~subject:(Printf.sprintf "sendfile fd=%d" f.sf_fd)
                      "sendfile delivery off=%d len=%d diverges from the \
                       flat-file model"
                      off len)
            with
            | Ok h -> h
            | Error `Again -> assert false
          in
          incr storage_ops;
          f.sf_busy <- true;
          st.st_sendfile_busy <- true;
          (match
             Genie.File_io.sendfile st.st_fio st.st_ep ~fd:f.sf_fd ~off ~len
               ~on_complete:(fun () ->
                 f.sf_busy <- false;
                 st.st_sendfile_busy <- false)
               ()
           with
          | Ok seq ->
              note "sendfile#%d %s->%s fd=%d off=%d len=%d" seq (sname side)
                (sname peer) f.sf_fd off len
          | Error `Again ->
              incr rejected;
              f.sf_busy <- false;
              st.st_sendfile_busy <- false;
              ignore (Genie.Endpoint.cancel handle : bool);
              note "sendfile REJECTED (backpressure) %s fd=%d len=%d"
                (sname side) f.sf_fd len)
  in

  let send_buffer ~id send sem len =
    if Sem.system_allocated sem then begin
      (* half the time, round-trip a region received from a previous
         system-allocated input instead of mapping a fresh one *)
      let reuse =
        if R.int rng ~bound:2 = 0 then begin
          let rec take acc = function
            | [] -> None
            | ((_, r) as x) :: rest
              when r.Vm.Region.valid
                   && r.Vm.Region.state = Vm.Region.Moved_in
                   && r.Vm.Region.wired = 0
                   && r.Vm.Region.npages * psize >= len ->
                send.s_sys_ready <- List.rev_append acc rest;
                Some x
            | x :: rest -> take (x :: acc) rest
          in
          take [] send.s_sys_ready
        end
        else None
      in
      match reuse with
      | Some (_, r) ->
          (* the delivered payload may sit at an offset inside the region
             (header skip); rebase to the region start for the output *)
          let base = Vm.Address_space.base_addr r ~page_size:psize in
          (None, true, Genie.Buf.make send.s_space ~addr:base ~len)
      | None ->
          let r =
            Vm.Address_space.map_region send.s_space ~npages:(pages_for 0 len)
              ~state:Vm.Region.Moved_in
          in
          let base = Vm.Address_space.base_addr r ~page_size:psize in
          (None, false, Genie.Buf.make send.s_space ~addr:base ~len)
    end
    else begin
      let r, buf = app_buffer send len in
      let ao = { ao_id = id; ao_buf = buf; ao_region = r; ao_done = false } in
      send.s_app_outs <- ao :: send.s_app_outs;
      (Some ao, false, buf)
    end
  in

  (* Input-completion bookkeeping, shared between the sequential
     callback path and the batched reap path so both regimes account
     deliveries identically. *)
  let sys_input_complete recv res =
    decr live;
    incr completed;
    audit_delivery recv.s_host res;
    match res.Genie.Input_path.buf with
    | Some b when Genie.Input_path.ok res ->
        let r =
          Vm.Address_space.region_of_addr recv.s_space ~vaddr:b.Genie.Buf.addr
        in
        recv.s_sys_ready <- (b, r) :: recv.s_sys_ready
    | _ -> ()
  in
  let app_input_complete recv r res =
    decr live;
    incr completed;
    audit_delivery recv.s_host res;
    recv.s_freeable <- r :: recv.s_freeable
  in
  (* Build the spec and its completion continuation for one input. *)
  let input_entry recv sem len =
    let expected = if R.int rng ~bound:8 = 0 then max 1 (len / 2) else len in
    if Sem.system_allocated sem then
      ( Genie.Input_path.Sys_alloc { space = recv.s_space; len = expected },
        sys_input_complete recv )
    else begin
      let r, buf = app_buffer recv expected in
      (Genie.Input_path.App_buffer buf, app_input_complete recv r)
    end
  in

  let post_input recv vc sem len =
    let spec, on_complete = input_entry recv sem len in
    let ep = List.assoc vc recv.s_eps in
    incr live;
    match Genie.Endpoint.input ep ~sem ~spec ~on_complete with
    | Ok h -> Some h
    | Error `Again ->
        (* Frame exhaustion rejected the region allocation: the input
           was never posted.  The paired output turns into an orphan. *)
        decr live;
        incr rejected;
        note "input REJECTED (backpressure) on %s vc=%d" (sname recv) vc;
        None
  in

  let do_transfer ~orphan () =
    let a_to_b = R.int rng ~bound:2 = 0 in
    let send, recv = if a_to_b then (side_a, side_b) else (side_b, side_a) in
    let vc, _mode = pick rng vcs in
    let drawn_sem = pick rng Sem.all in
    let send_sem = if a_to_b then adapt_sem drawn_sem else drawn_sem in
    let recv_sem = pick rng Sem.all in
    let len = pick rng !cur_sizes in
    incr started;
    let id = !started in
    let ao, reused, buf = send_buffer ~id send send_sem len in
    Genie.Buf.fill_pattern buf ~seed:id;
    let handle =
      if orphan then begin
        incr faults;
        None
      end
      else post_input recv vc recv_sem len
    in
    let ep_out = List.assoc vc send.s_eps in
    (match
       Genie.Endpoint.output ep_out ~sem:send_sem ~buf ~seq:id
         ~on_complete:(fun () ->
           match ao with Some ao -> ao.ao_done <- true | None -> ())
         ()
     with
    | Ok _ ->
        Hashtbl.replace sent_meta id len;
        if a_to_b then adapt_note ~len;
        note "transfer#%d %s->%s vc=%d out=%s in=%s len=%d%s%s" id (sname send)
          (sname recv) vc (Sem.name send_sem)
          (if handle = None then "(none)" else Sem.name recv_sem)
          len
          (if reused then " reused-region" else "")
          (if orphan then " RECEIVER-ABSENT" else "")
    | Error `Again ->
        (* Backpressure: nothing was sent, so the posted input would wait
           forever — cancel it to keep the accounting closed. *)
        incr rejected;
        (match ao with Some ao -> ao.ao_done <- true | None -> ());
        (match handle with
        | Some h -> if Genie.Endpoint.cancel h then decr live
        | None -> ());
        note "transfer#%d %s->%s vc=%d out=%s len=%d REJECTED (backpressure)"
          id (sname send) (sname recv) vc (Sem.name send_sem) len)
  in

  (* --- the batched ring path ---------------------------------------- *)

  (* Drain every endpoint's completion ring, resolving the batched
     bookkeeping registered at submit time. *)
  let reap_side side =
    List.fold_left
      (fun acc (vc, ep) ->
        let cs = Genie.Endpoint.reap_completions ep in
        List.iter
          (function
            | Genie.Endpoint.Out_complete { seq } -> (
                match Hashtbl.find_opt out_waiting seq with
                | Some ao ->
                    ao.ao_done <- true;
                    Hashtbl.remove out_waiting seq
                | None -> () (* system-allocated output: nothing to mark *))
            | Genie.Endpoint.In_complete { token; result } -> (
                let key = (sname side, vc, token) in
                match Hashtbl.find_opt in_waiting key with
                | Some cont ->
                    Hashtbl.remove in_waiting key;
                    cont result
                | None -> () (* cancelled after arrival; already undone *)))
          cs;
        acc + List.length cs)
      0 side.s_eps
  in
  let do_reap () =
    let n = reap_side side_a + reap_side side_b in
    note "reap %d completions" n
  in

  (* One batch per direction pair: k inputs posted with one
     [submit_batch] on the receiver, then the k matching outputs with
     one [submit_batch] on the sender.  Mid-batch faults: a posted
     input may be cancelled under the batch, and under hog pressure the
     admission checks reject individual entries ([Rejected `Again])
     while the rest of the batch proceeds. *)
  let do_batch_transfer () =
    let a_to_b = R.int rng ~bound:2 = 0 in
    let send, recv = if a_to_b then (side_a, side_b) else (side_b, side_a) in
    let vc, _mode = pick rng vcs in
    let room = max 1 (cfg.max_in_flight - !live) in
    let k = 1 + R.int rng ~bound:(min 6 room) in
    (* explicit loops: rng draws must happen in a defined order for the
       run to replay from its seed *)
    let msgs = ref [] in
    for _ = 1 to k do
      incr started;
      let id = !started in
      let drawn_sem = pick rng Sem.all in
      let send_sem = if a_to_b then adapt_sem drawn_sem else drawn_sem in
      let recv_sem = pick rng Sem.all in
      let len = pick rng !cur_sizes in
      msgs := (id, send_sem, recv_sem, len) :: !msgs
    done;
    let msgs = Array.of_list (List.rev !msgs) in
    (* receiver: one batched submit of all k inputs *)
    let recv_ep = List.assoc vc recv.s_eps in
    let in_conts = Array.make k (fun (_ : Genie.Input_path.result) -> ()) in
    let in_subs = ref [] in
    Array.iteri
      (fun i (_, _, recv_sem, len) ->
        let spec, cont = input_entry recv recv_sem len in
        in_conts.(i) <- cont;
        in_subs := Genie.Endpoint.Sub_input { sem = recv_sem; spec } :: !in_subs)
      msgs;
    let in_subs = Array.of_list (List.rev !in_subs) in
    let in_outcomes = Genie.Endpoint.submit_batch recv_ep in_subs in
    let handles = Array.make k None in
    Array.iteri
      (fun i outcome ->
        match outcome with
        | Genie.Endpoint.In_accepted h ->
            incr live;
            Hashtbl.replace in_waiting
              (sname recv, vc, Genie.Endpoint.token h)
              in_conts.(i);
            handles.(i) <- Some h
        | Genie.Endpoint.Rejected `Again ->
            incr rejected;
            note "batch input REJECTED (backpressure) on %s vc=%d" (sname recv)
              vc
        | Genie.Endpoint.Out_accepted _ -> assert false)
      in_outcomes;
    let uncancel_input i =
      match handles.(i) with
      | Some h when Genie.Endpoint.cancel h ->
          decr live;
          Hashtbl.remove in_waiting (sname recv, vc, Genie.Endpoint.token h);
          handles.(i) <- None;
          true
      | _ -> false
    in
    (* mid-batch cancel: drop one posted input under its batch *)
    if R.int rng ~bound:4 = 0 then begin
      let i = R.int rng ~bound:k in
      if uncancel_input i then begin
        incr faults;
        note "batch cancel input #%d on %s vc=%d" i (sname recv) vc
      end
    end;
    (* sender: one batched submit of all k outputs *)
    let out_meta = Array.make k (0, 0, None, false) in
    let out_subs = ref [] in
    Array.iteri
      (fun i (id, send_sem, _, len) ->
        let ao, reused, buf = send_buffer ~id send send_sem len in
        Genie.Buf.fill_pattern buf ~seed:id;
        out_meta.(i) <- (id, len, ao, reused);
        out_subs :=
          Genie.Endpoint.Sub_output { sem = send_sem; buf; seq = Some id }
          :: !out_subs)
      msgs;
    let out_subs = Array.of_list (List.rev !out_subs) in
    let send_ep = List.assoc vc send.s_eps in
    let out_outcomes = Genie.Endpoint.submit_batch send_ep out_subs in
    Array.iteri
      (fun i outcome ->
        let id, len, ao, reused = out_meta.(i) in
        let _, send_sem, recv_sem, _ = msgs.(i) in
        match outcome with
        | Genie.Endpoint.Out_accepted _ ->
            Hashtbl.replace sent_meta id len;
            if a_to_b then adapt_note ~len;
            (match ao with
            | Some ao -> Hashtbl.replace out_waiting id ao
            | None -> ());
            note "transfer#%d %s->%s vc=%d out=%s in=%s len=%d%s batched" id
              (sname send) (sname recv) vc (Sem.name send_sem)
              (if handles.(i) = None then "(none)" else Sem.name recv_sem)
              len
              (if reused then " reused-region" else "")
        | Genie.Endpoint.Rejected `Again ->
            (* Mirror the sequential reject path: nothing was sent, so
               the posted input would wait forever — cancel it. *)
            incr rejected;
            (match ao with Some ao -> ao.ao_done <- true | None -> ());
            ignore (uncancel_input i);
            note "transfer#%d %s->%s vc=%d out=%s len=%d REJECTED \
                  (backpressure) batched"
              id (sname send) (sname recv) vc (Sem.name send_sem) len
        | Genie.Endpoint.In_accepted _ -> assert false)
      out_outcomes
  in

  let do_poke () =
    let cands =
      List.concat_map
        (fun side -> List.map (fun ao -> (side, ao)) side.s_app_outs)
        [ side_a; side_b ]
    in
    match cands with
    | [] -> note "skip poke: no app output buffers"
    | _ ->
        let side, ao = pick rng cands in
        let blen = ao.ao_buf.Genie.Buf.len in
        let off = R.int rng ~bound:blen in
        let n = 1 + R.int rng ~bound:(min 16 (blen - off)) in
        let data = Bytes.make n (Char.chr (R.int rng ~bound:256)) in
        Vm.Address_space.write side.s_space
          ~addr:(ao.ao_buf.Genie.Buf.addr + off)
          data;
        Hashtbl.replace tainted ao.ao_id ();
        incr faults;
        note "poke %s region@vpn%d off=%d len=%d%s" (sname side)
          ao.ao_region.Vm.Region.start_vpn off n
          (if ao.ao_done then "" else " IN-FLIGHT")
  in

  let do_corrupt () =
    let side = pick_side () in
    let vc, _ = pick rng vcs in
    Net.Adapter.corrupt_next_pdu side.s_host.Genie.Host.adapter ~vc;
    incr faults;
    note "corrupt next pdu from %s vc=%d" (sname side) vc
  in

  (* One-shot link faults on the datagram VCs.  Drops are reserved for
     the reliable-transport VC (see [do_rel]): a dropped plain datagram
     would leave its posted input pending forever, which is exactly what
     the transfer-accounting audit must flag as a bug elsewhere. *)
  let do_link_fault () =
    let side = pick_side () in
    let vc, _ = pick rng vcs in
    let f =
      match R.int rng ~bound:3 with
      | 0 -> Net.Adapter.Corrupt
      | 1 -> Net.Adapter.Delay_us (float_of_int (100 + R.int rng ~bound:3000))
      | _ ->
          if !dups < 5 then begin
            incr dups;
            Net.Adapter.Duplicate
          end
          else Net.Adapter.Corrupt
    in
    Net.Adapter.inject_fault side.s_host.Genie.Host.adapter ~vc f;
    incr faults;
    note "link-fault %s vc=%d %s" (sname side) vc
      (match f with
      | Net.Adapter.Drop -> "drop"
      | Net.Adapter.Corrupt -> "corrupt"
      | Net.Adapter.Duplicate -> "duplicate"
      | Net.Adapter.Delay_us d -> Printf.sprintf "delay=%.0fus" d)
  in

  (* Resource-exhaustion pressure: hold a big slice of the overlay pool
     or of free physical memory for a while, so concurrent transfers hit
     the typed degradation paths (fallback, borrow, reclaim, reject). *)
  let do_hog () =
    let side = pick_side () in
    let hold_us = float_of_int (100 + R.int rng ~bound:500) in
    if R.int rng ~bound:2 = 0 then begin
      let k = Genie.Host.pool_level side.s_host in
      if k = 0 then note "skip hog: pool already empty on %s" (sname side)
      else begin
        let taken = ref [] in
        for _ = 1 to k do
          match Genie.Host.pool_take_opt side.s_host with
          | Some f -> taken := f :: !taken
          | None -> ()
        done;
        Simcore.Engine.schedule side.s_host.Genie.Host.engine
          ~delay:(Simcore.Sim_time.of_us hold_us) (fun () ->
            List.iter (Genie.Host.pool_put side.s_host) !taken);
        note "hog %s overlay pool (%d frames) for %.0fus" (sname side) k hold_us
      end
    end
    else begin
      (* A deep hog first strips the pageable pages, so the admission
         check's reclaim retry finds nothing to evict and outputs see
         genuine [`Again] rejections; a shallow hog leaves reclaimable
         pages and exercises the retry-succeeds path instead. *)
      let deep = R.int rng ~bound:2 = 0 in
      if deep then
        ignore
          (Vm.Vm_sys.run_pageout side.s_host.Genie.Host.vm ~target:100_000);
      let free =
        Memory.Phys_mem.free_frames side.s_host.Genie.Host.vm.Vm.Vm_sys.phys
      in
      (* near-total: leave a handful of frames so single-page application
         faults still squeeze through while multi-page admissions fail *)
      let n = free - (1 + R.int rng ~bound:(if deep then 3 else 8)) in
      if n <= 0 then note "skip hog: no free frames on %s" (sname side)
      else
        match Genie.Host.try_alloc_sys_frames side.s_host n with
        | None -> note "hog failed: %d frames unavailable on %s" n (sname side)
        | Some frames ->
            Simcore.Engine.schedule side.s_host.Genie.Host.engine
              ~delay:(Simcore.Sim_time.of_us hold_us) (fun () ->
                Genie.Host.free_sys_frames side.s_host frames);
            note "hog %d sys frames on %s for %.0fus%s" n (sname side) hold_us
              (if deep then " DEEP" else "")
    end
  in

  let do_pageout () =
    let side = pick_side () in
    let target = 1 + R.int rng ~bound:8 in
    let evicted = Vm.Vm_sys.run_pageout side.s_host.Genie.Host.vm ~target in
    note "pageout %s target=%d evicted=%d" (sname side) target evicted
  in

  (* Remove a system-allocated input region mid-flight: exercises the
     dispose-time region check / ensure_region re-homing path.  Only
     emulated, unwired Moving_in regions qualify (non-emulated weak-move
     inputs keep their region wired for in-place DMA). *)
  let do_remove_moving_in () =
    let cands side =
      List.filter_map
        (fun (e : Genie.Ledger.entry) ->
          if e.dir = Genie.Ledger.Input && e.sem.Sem.emulated
             && Sem.system_allocated e.sem
          then
            match e.region () with
            | Some r
              when r.Vm.Region.valid
                   && r.Vm.Region.state = Vm.Region.Moving_in
                   && r.Vm.Region.wired = 0 ->
                Some (e.space, r)
            | _ -> None
          else None)
        (Genie.Ledger.entries side.s_host.Genie.Host.ledger)
    in
    match cands side_a @ cands side_b with
    | [] -> note "skip remove-moving-in: none in flight"
    | l ->
        let space, r = pick rng l in
        Vm.Address_space.remove_region space r;
        incr faults;
        note "remove region@vpn%d (npages=%d) MID-INPUT"
          r.Vm.Region.start_vpn r.Vm.Region.npages
  in

  let do_free () =
    let cands =
      List.concat_map
        (fun side ->
          List.map (fun r -> (side, `Freeable r)) side.s_freeable
          @ List.filter_map
              (fun ao -> if ao.ao_done then Some (side, `App_out ao) else None)
              side.s_app_outs
          @ List.map (fun sr -> (side, `Sys_ready sr)) side.s_sys_ready)
        [ side_a; side_b ]
    in
    match cands with
    | [] -> note "skip free: nothing reclaimable"
    | _ -> (
        let side, c = pick rng cands in
        let remove r =
          if r.Vm.Region.valid && r.Vm.Region.wired = 0 then begin
            Vm.Address_space.remove_region side.s_space r;
            note "free region@vpn%d on %s" r.Vm.Region.start_vpn (sname side)
          end
          else note "skip free region@vpn%d: busy" r.Vm.Region.start_vpn
        in
        match c with
        | `Freeable r ->
            side.s_freeable <- List.filter (fun r' -> r' != r) side.s_freeable;
            remove r
        | `App_out ao ->
            side.s_app_outs <-
              List.filter (fun ao' -> ao' != ao) side.s_app_outs;
            remove ao.ao_region
        | `Sys_ready ((_, r) as sr) ->
            side.s_sys_ready <-
              List.filter (fun sr' -> sr' != sr) side.s_sys_ready;
            remove r)
  in

  (* --- reliable-transport sessions under the fault schedule --------- *)

  let rel_da, rel_db =
    Genie.World.endpoint_pair w ~vc:rel_data_vc ~mode:Net.Adapter.Early_demux
  in
  let rel_aa, rel_ab =
    Genie.World.endpoint_pair w ~vc:rel_ack_vc ~mode:Net.Adapter.Early_demux
  in
  let mk_rel ~data ~ack =
    Genie.Rel_channel.create ~chunk:8192 ~window:2 ~ack_timeout_us:3_000.
      ~max_retries:3 ~data ~ack Sem.emulated_copy
  in
  let rel_tx = mk_rel ~data:rel_da ~ack:rel_aa in
  let rel_rx = mk_rel ~data:rel_db ~ack:rel_ab in
  let rel_sessions = ref 0 in
  (* open legs of the current session: sender + receiver; a new session
     starts only once both have reached a terminal state, so go-back-N
     sequence numbers of different sessions never interleave *)
  let rel_open = ref 0 in
  let do_rel () =
    if !rel_open > 0 then do_run ()
    else begin
      incr rel_sessions;
      let id = 1_000_000 + !rel_sessions in
      let len = (8192 * (2 + R.int rng ~bound:4)) + R.int rng ~bound:1000 in
      let src_r, src = app_buffer side_a len in
      Genie.Buf.fill_pattern src ~seed:id;
      let dst_r, dst = app_buffer side_b len in
      let adapter = host_a.Genie.Host.adapter in
      let mode = R.int rng ~bound:5 in
      let mode_name =
        match mode with
        | 0 ->
            for _ = 1 to 1 + R.int rng ~bound:2 do
              Net.Adapter.inject_fault adapter ~vc:rel_data_vc Net.Adapter.Drop;
              incr faults
            done;
            "lossy"
        | 1 ->
            Net.Adapter.inject_fault adapter ~vc:rel_data_vc Net.Adapter.Duplicate;
            incr faults;
            "dup"
        | 2 ->
            Net.Adapter.inject_fault adapter ~vc:rel_data_vc
              (Net.Adapter.Delay_us (float_of_int (2_000 + R.int rng ~bound:6_000)));
            incr faults;
            "delay"
        | 3 ->
            Net.Adapter.inject_fault adapter ~vc:rel_data_vc Net.Adapter.Corrupt;
            incr faults;
            "corrupt"
        | _ ->
            (* dead link: every data PDU drops until the sender hits the
               retransmission cap and gives up *)
            Net.Adapter.set_fault_rates adapter ~vc:rel_data_vc
              ~rng:(R.split rng)
              {
                Net.Adapter.p_drop = 1.0;
                p_corrupt = 0.;
                p_duplicate = 0.;
                p_delay = 0.;
                delay_us = 0.;
              };
            incr faults;
            "dead"
      in
      rel_open := 2;
      let sid = !rel_sessions in
      Genie.Rel_channel.recv rel_rx ~deadline_us:60_000. ~buf:dst
        ~on_complete:(fun ~ok ->
          decr rel_open;
          if
            ok
            && not
                 (Bytes.equal (Genie.Buf.read dst)
                    (Genie.Buf.expected_pattern ~len ~seed:id))
          then
            audit_violation ~invariant:"byte-integrity"
              ~host:host_b.Genie.Host.name
              ~subject:(Printf.sprintf "rel#%d" sid)
              "reliable transfer delivered corrupted bytes (%d)" len;
          side_b.s_freeable <- dst_r :: side_b.s_freeable;
          note "rel#%d receiver done ok=%b" sid ok)
        ();
      Genie.Rel_channel.send rel_tx ~buf:src ~on_complete:(fun r ->
          decr rel_open;
          Net.Adapter.clear_faults adapter ~vc:rel_data_vc;
          side_a.s_freeable <- src_r :: side_a.s_freeable;
          match r with
          | Ok retx -> note "rel#%d sender done retx=%d" sid retx
          | Error (`Gave_up retx) -> note "rel#%d sender GAVE UP retx=%d" sid retx);
      note "rel#%d start len=%d fault=%s" sid len mode_name
    end
  in

  (* --- the fabric-churn regime -------------------------------------- *)

  (* Flow open/close storms against a [Genie.Flow_table] — the slab the
     fabric engine recycles its flow state machines through — audited
     against a shadow model.  The properties that make stale handles
     safe at datacenter scale: a fresh handle never equals any handle
     that is (or was ever) live with a different tenant, freed handles
     go inert ([get] = [None], [free] = [false]) rather than aliasing
     the slot's next tenant, and the live count tracks the model
     exactly. *)
  let fabric_ops = ref 0 in
  let fab_table = Genie.Flow_table.create ~initial:4 ~dummy:(-1) () in
  let fab_live : (Genie.Flow_table.handle, int) Hashtbl.t = Hashtbl.create 64 in
  let fab_ever : (Genie.Flow_table.handle, unit) Hashtbl.t = Hashtbl.create 64 in
  let fab_retired = Array.make 64 None in
  let fab_retired_at = ref 0 in
  let fab_next_payload = ref 0 in
  let fab_violation fmt =
    audit_violation ~invariant:"flow-table" ~host:"world" ~subject:"fabric" fmt
  in
  let do_fabric_churn () =
    let storm = 8 + R.int rng ~bound:57 in
    note "fabric churn storm of %d ops (live %d)" storm
      (Genie.Flow_table.live fab_table);
    for _ = 1 to storm do
      incr fabric_ops;
      let roll = R.int rng ~bound:10 in
      if roll < 5 then begin
        (* open: a fresh handle must be live, carry its payload, and
           never collide with a live handle. *)
        let p = !fab_next_payload in
        incr fab_next_payload;
        let h = Genie.Flow_table.alloc fab_table p in
        if Hashtbl.mem fab_ever h then
          fab_violation "free list reissued handle %#x" h;
        Hashtbl.replace fab_ever h ();
        if Genie.Flow_table.get fab_table h <> Some p then
          fab_violation "fresh handle %#x does not hold its payload" h;
        Hashtbl.replace fab_live h p
      end
      else if roll < 8 then begin
        (* close: a live handle picked from the shadow model. *)
        match
          Hashtbl.fold (fun h p acc ->
              match acc with Some _ -> acc | None -> Some (h, p))
            fab_live None
        with
        | None -> ()
        | Some (h, p) ->
          if Genie.Flow_table.get fab_table h <> Some p then
            fab_violation "live handle %#x lost its payload" h;
          if not (Genie.Flow_table.free fab_table h) then
            fab_violation "freeing live handle %#x refused" h;
          if Genie.Flow_table.is_live fab_table h then
            fab_violation "handle %#x still live after free" h;
          Hashtbl.remove fab_live h;
          fab_retired.(!fab_retired_at mod Array.length fab_retired) <- Some h;
          incr fab_retired_at
      end
      else begin
        (* stale probe: a retired handle must be inert even when its
           slot has a new tenant. *)
        match fab_retired.(R.int rng ~bound:(Array.length fab_retired)) with
        | None -> ()
        | Some h ->
          (* Generations are monotonic, so a retired handle can never
             come back live — it must be fully inert. *)
          if Genie.Flow_table.get fab_table h <> None then
            fab_violation "stale handle %#x still reads a payload" h;
          if Genie.Flow_table.free fab_table h then
            fab_violation "stale handle %#x freed the slot's new tenant" h
      end
    done;
    if Genie.Flow_table.live fab_table <> Hashtbl.length fab_live then
      fab_violation "live count %d diverges from the model's %d"
        (Genie.Flow_table.live fab_table)
        (Hashtbl.length fab_live);
    if Genie.Flow_table.high_water fab_table > Genie.Flow_table.capacity fab_table
    then
      fab_violation "high water %d exceeds capacity %d"
        (Genie.Flow_table.high_water fab_table)
        (Genie.Flow_table.capacity fab_table)
  in

  (* --- main loop ---------------------------------------------------- *)

  let violations = ref [] in
  let steps_run = ref 0 in
  let check () =
    match !audit @ Invariants.check_world [ host_a; host_b ] with
    | [] -> false
    | vs ->
        violations := vs;
        true
  in
  (try
     for i = 1 to cfg.steps do
       steps_run := i;
       shift_workload i;
       let actions =
         [
           (6, fun () ->
             if !live >= cfg.max_in_flight then do_run ()
             else if cfg.batch then do_batch_transfer ()
             else do_transfer ~orphan:false ());
           (4, do_run);
           (2, do_poke);
           (2, do_free);
           (1, fun () ->
             if !orphans >= 5 then do_corrupt ()
             else begin
               incr orphans;
               do_transfer ~orphan:true ()
             end);
           (1, do_corrupt);
           (1, do_pageout);
           (1, do_remove_moving_in);
         ]
         @ (if cfg.batch then [ (3, do_reap) ] else [])
         @ (if cfg.exhaustion then [ (2, do_hog) ] else [])
         @ (if cfg.link_faults then [ (2, do_link_fault); (2, do_rel) ] else [])
         @ (if cfg.storage then
              [
                (3, do_store_write);
                (2, do_store_read);
                (1, do_store_fsync);
                (1, do_store_sendfile);
                (1, do_store_cachectl);
              ]
            else [])
         @ (if cfg.fabric then [ (2, do_fabric_churn) ] else [])
       in
       let total = List.fold_left (fun acc (w, _) -> acc + w) 0 actions in
       let roll = R.int rng ~bound:total in
       let rec dispatch roll = function
         | [] -> assert false
         | (w, f) :: rest -> if roll < w then f () else dispatch (roll - w) rest
       in
       dispatch roll actions;
       if i mod cfg.check_every = 0 && check () then raise Exit
     done;
     (* drain everything still in flight and audit the quiesced world *)
     Genie.World.run w;
     (* Storage end-state: sizes must match the flat-file model, every
        operation must have completed, and a full readback of each file
        must return exactly the model bytes — whatever the eviction,
        writeback and fsync interleaving did to the cache. *)
     if cfg.storage then begin
       List.iter
         (fun side ->
           match storage_of side with
           | None -> ()
           | Some st ->
               Array.iter
                 (fun f ->
                   if f.sf_busy then
                     audit_violation ~invariant:"transfer-accounting"
                       ~host:(sname side)
                       ~subject:(Printf.sprintf "file fd=%d" f.sf_fd)
                       "storage operation never completed after drain";
                   let sz = Genie.File_io.size st.st_fio ~fd:f.sf_fd in
                   if sz <> Bytes.length f.sf_model then
                     audit_violation ~invariant:"byte-integrity"
                       ~host:(sname side)
                       ~subject:(Printf.sprintf "file fd=%d" f.sf_fd)
                       "file size %d diverges from the model's %d" sz
                       (Bytes.length f.sf_model);
                   let len = Bytes.length f.sf_model in
                   if len > 0 then begin
                     let expected = Bytes.copy f.sf_model in
                     match
                       Genie.File_io.read st.st_fio ~fd:f.sf_fd ~off:0 ~len
                         ~on_complete:(fun got ->
                           if not (Bytes.equal got expected) then
                             audit_violation ~invariant:"byte-integrity"
                               ~host:(sname side)
                               ~subject:(Printf.sprintf "file fd=%d" f.sf_fd)
                               "end-state readback (%d bytes) diverges from \
                                the flat-file model"
                               len)
                     with
                     | Ok () -> ()
                     | Error `Again ->
                         note "skip end-state readback fd=%d: admission \
                               rejected" f.sf_fd
                   end)
                 st.st_files;
               if Genie.Endpoint.pending_inputs st.st_ep <> 0 then
                 audit_violation ~invariant:"transfer-accounting"
                   ~host:(sname side) ~subject:"sendfile"
                   "%d storage-VC inputs still pending after drain"
                   (Genie.Endpoint.pending_inputs st.st_ep))
         [ side_a; side_b ];
       Genie.World.run w
     end;
     (* final reap: every batched completion must be on a ring by now *)
     if cfg.batch then begin
       let n = reap_side side_a + reap_side side_b in
       if n > 0 then note "final reap %d completions" n
     end;
     note "drained; %d/%d transfers completed" !completed !started;
     (* Full drain of the batched bookkeeping: an accepted batched
        operation whose completion never reached a ring means the ring
        path lost it. *)
     let stuck_out = Hashtbl.length out_waiting
     and stuck_in = Hashtbl.length in_waiting in
     if stuck_out <> 0 || stuck_in <> 0 then
       audit_violation ~invariant:"transfer-accounting" ~host:"world"
         ~subject:"rings"
         "%d batched outputs and %d batched inputs never reaped after drain"
         stuck_out stuck_in;
     (* Transfer accounting: at quiescence every queued transfer must
        have been completed or cancelled — a pending input with no PDU
        ever coming means a completion was silently lost. *)
     if !live <> 0 || !rel_open <> 0 then
       audit_violation ~invariant:"transfer-accounting" ~host:"world"
         ~subject:"drain"
         "%d datagram inputs and %d rel legs still pending after drain"
         !live !rel_open;
     let pending =
       List.fold_left
         (fun acc (_, ep) -> acc + Genie.Endpoint.pending_inputs ep)
         0
         (side_a.s_eps @ side_b.s_eps)
     in
     if pending <> 0 then
       audit_violation ~invariant:"transfer-accounting" ~host:"world"
         ~subject:"endpoints" "%d endpoint inputs still pending after drain"
         pending;
     (* Oscillation audit: hysteresis bounds how often the controller
        may migrate, chaos or not. *)
     (match adapt_ctl with
     | Some ctl ->
         let cap =
           Genie.Adapt.migration_cap adapt_config
             ~epochs:(Genie.Adapt.epochs ctl)
         in
         if Genie.Adapt.migrations ctl > cap then
           audit_violation ~invariant:"adapt-oscillation" ~host:"a"
             ~subject:"controller"
             "%d migrations exceed the dwell-derived cap of %d over %d epochs"
             (Genie.Adapt.migrations ctl)
             cap
             (Genie.Adapt.epochs ctl);
         note "adaptation: %d epochs, %d migrations (cap %d), final %s"
           (Genie.Adapt.epochs ctl)
           (Genie.Adapt.migrations ctl)
           cap
           (Sem.name (Genie.Adapt.semantics ctl))
     | None -> ());
     ignore (check () : bool)
   with Exit -> ());
  let trace_tail =
    List.concat_map
      (fun host ->
        List.map
          (fun ev ->
            Printf.sprintf "[%s t=%8.2fus] %s" host.Genie.Host.name
              (Simcore.Sim_time.to_us ev.Simcore.Tracer.time)
              (Simcore.Tracer.render ev))
          (Simcore.Tracer.tail host.Genie.Host.tracer cfg.trace_tail))
      [ host_a; host_b ]
  in
  let events =
    List.map
      (fun k ->
        ( k,
          List.fold_left
            (fun acc h ->
              acc
              + Simcore.Tracer.counter h.Genie.Host.tracer
                  ~host:h.Genie.Host.name k)
            0 [ host_a; host_b ] ))
      event_keys
  in
  let digest =
    let b = Buffer.create 128 in
    Buffer.add_string b
      (Printf.sprintf
         "seed=%d;steps=%d;run=%d;started=%d;completed=%d;faults=%d;rejected=%d;rel=%d;store=%d;fab=%d;t=%.3f;viol=%d;"
         cfg.seed cfg.steps !steps_run !started !completed !faults
         !rejected !rel_sessions !storage_ops !fabric_ops
         (Genie.Host.now_us host_a)
         (List.length !violations));
    List.iter
      (fun (k, n) -> Buffer.add_string b (Printf.sprintf "%s=%d;" k n))
      events;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  {
    steps_run = !steps_run;
    stop = (if !violations = [] then Completed else Violations !violations);
    schedule = List.rev !schedule;
    transfers_started = !started;
    transfers_completed = !completed;
    faults_injected = !faults;
    rejected = !rejected;
    rel_sessions = !rel_sessions;
    storage_ops = !storage_ops;
    fabric_ops = !fabric_ops;
    events;
    trace_tail;
    digest;
  }

let pp_outcome fmt o =
  let open Format in
  (match o.stop with
  | Completed ->
      fprintf fmt
        "fuzz: %d steps, %d transfers started, %d completed, %d rejected, %d \
         rel sessions, %d storage ops, %d fabric ops, %d faults injected, \
         all invariants held@."
        o.steps_run o.transfers_started o.transfers_completed o.rejected
        o.rel_sessions o.storage_ops o.fabric_ops o.faults_injected
  | Violations vs ->
      fprintf fmt "fuzz: INVARIANT VIOLATION after %d steps@." o.steps_run;
      List.iter (fun v -> fprintf fmt "  %a@." Invariants.pp_violation v) vs;
      let tail =
        let n = List.length o.schedule in
        if n <= 12 then o.schedule
        else List.filteri (fun i _ -> i >= n - 12) o.schedule
      in
      fprintf fmt "last schedule entries:@.";
      List.iter (fun s -> fprintf fmt "  %s@." s) tail;
      if o.trace_tail <> [] then begin
        fprintf fmt "trace tail:@.";
        List.iter (fun s -> fprintf fmt "  %s@." s) o.trace_tail
      end);
  let nonzero = List.filter (fun (_, n) -> n > 0) o.events in
  if nonzero <> [] then begin
    fprintf fmt "pressure/fault events:@.";
    List.iter (fun (k, n) -> fprintf fmt "  %-22s %d@." k n) nonzero
  end;
  fprintf fmt "replay digest: %s@." o.digest
