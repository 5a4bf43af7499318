(* Randomized fault-schedule fuzzer.  All scheduling decisions come from
   one Simcore.Rng stream, and the simulation itself is deterministic, so
   a config reproduces a run bit-for-bit.  [run] drives seven regimes;
   each module below owns one regime's state, weighted actions, drain
   audit and digest counter. *)

module R = Simcore.Rng
module Sem = Genie.Semantics

type config = {
  seed : int;
  steps : int;
  check_every : int;
  pool_frames : int;
  memory_mb : int;
  exhaustion : bool;
  link_faults : bool;
  batch : bool;
  storage : bool;
}

let default_config =
  {
    seed = 1;
    steps = 2000;
    check_every = 1;
    pool_frames = 128;
    memory_mb = 32;
    exhaustion = true;
    link_faults = true;
    batch = true;
    storage = true;
  }

(* A transfer action runs the clock instead once this many datagram
   inputs are in flight; a run keeps this many tracer events per host. *)
let max_in_flight = 6
let tail_events = 48

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

let vcs =
  [ (1, Net.Adapter.Early_demux); (2, Net.Adapter.Pooled); (3, Net.Adapter.Outboard) ]
let pick rng l = List.nth l (R.int rng ~bound:(List.length l))

(* --- what every regime shares ---------------------------------------- *)

(* The world with its three datagram VCs and one application address
   space per host, the seeded stream, the schedule notes and the
   fuzzer's own audit findings (both newest first), and the tallies
   several regimes add to. *)
type ctx = {
  cfg : config;
  w : Genie.World.t;
  rng : R.t;
  a : side;
  b : side;
  psize : int;
  mutable schedule : string list;
  mutable audit : Invariants.violation list;
  started : int ref;
  completed : int ref;
  faults : int ref;
  rejected : int ref;
  live : int ref;  (** datagram inputs posted and not yet completed *)
}

let make_ctx ?trace cfg =
  let mspec = { Machine.Machine_spec.micron_p166 with memory_mb = cfg.memory_mb } in
  let pool_frames = cfg.pool_frames in
  let w = Genie.World.create ?trace ~spec_a:mspec ~spec_b:mspec ~pool_frames () in
  Simcore.Tracer.enable w.Genie.World.a.Genie.Host.tracer;
  Simcore.Tracer.enable w.Genie.World.b.Genie.Host.tracer;
  let pairs =
    List.map (fun (vc, mode) -> (vc, Genie.World.endpoint_pair w ~vc ~mode)) vcs
  in
  let side host eps =
    {
      s_host = host;
      s_space = Genie.Host.new_space host;
      s_eps = eps;
      s_app_outs = [];
      s_sys_ready = [];
      s_freeable = [];
    }
  in
  let a = side w.Genie.World.a (List.map (fun (vc, (ea, _)) -> (vc, ea)) pairs) in
  let b = side w.Genie.World.b (List.map (fun (vc, (_, eb)) -> (vc, eb)) pairs) in
  {
    cfg;
    w;
    rng = R.create ~seed:cfg.seed;
    a;
    b;
    psize = Genie.Host.page_size a.s_host;
    schedule = [];
    audit = [];
    started = ref 0;
    completed = ref 0;
    faults = ref 0;
    rejected = ref 0;
    live = ref 0;
  }

let note ctx fmt =
  Printf.ksprintf
    (fun s ->
      let t = Genie.Host.now_us ctx.a.s_host in
      ctx.schedule <- Printf.sprintf "[t=%8.2fus] %s" t s :: ctx.schedule)
    fmt

(* A finding of the fuzzer's own cross-cutting audits (byte integrity of
   deliveries, transfer accounting at quiescence), merged with the
   invariant catalogue's findings at every check. *)
let violation ctx ~invariant ~host ~subject fmt =
  Printf.ksprintf
    (fun detail ->
      ctx.audit <- { Invariants.invariant; host; subject; detail } :: ctx.audit)
    fmt

let sname side = side.s_host.Genie.Host.name
let pick_side ctx = if R.int ctx.rng ~bound:2 = 0 then ctx.a else ctx.b
let pages_for ctx off len = (off + len + ctx.psize - 1) / ctx.psize

let app_buffer ctx side len =
  let off = if R.int ctx.rng ~bound:4 = 0 then R.int ctx.rng ~bound:ctx.psize else 0 in
  let r = Vm.Address_space.map_region side.s_space ~npages:(pages_for ctx off len) in
  let base = Vm.Address_space.base_addr r ~page_size:ctx.psize in
  (r, Genie.Buf.make side.s_space ~addr:(base + off) ~len)

let run_a_while ctx =
  let us = 1 + R.int ctx.rng ~bound:250 in
  Genie.World.run_for ctx.w (Simcore.Sim_time.of_us (float_of_int us));
  note ctx "run %dus" us

(* A regime as the driver sees it: weighted actions in dispatch order,
   an audit of the quiesced world, and the counter the digest reads. *)
type regime = {
  actions : (int * (unit -> unit)) list;
  drain : unit -> unit;
  count : unit -> int;
}

let quiet = { actions = []; drain = ignore; count = (fun () -> 0) }

type switch = { name : string; doc : string; off : config -> config }

(* --- the adaptation regime -------------------------------------------- *)

(* One online controller on host a: every a->b datagram runs on whatever
   semantics the controller currently holds, mixed with the randomly
   drawn b->a traffic, link faults, exhaustion hogs and mid-run workload
   shifts, so a migration can land at any point of the chaos.  The draw
   for the overridden semantics still happens, so the stream is the one
   every pinned digest was recorded on.  Evidence is noted at submit
   time from the driver, which runs between engine slices. *)
module Adaptation = struct
  let config =
    {
      Genie.Adapt.default_config with
      epoch_datagrams = 8;
      window_epochs = 2;
      dwell_epochs = 2;
    }

  type t = { ctx : ctx; ctl : Genie.Adapt.t; mutable sizes : int list }

  let setup ctx =
    let scheme = Genie.Stage_cost.Early_demux and host = ctx.a.s_host in
    { ctx; ctl = Genie.Adapt.create ~config ~host ~scheme ~sem:Sem.copy (); sizes }

  let out_sem t ~a_to_b drawn = if a_to_b then Genie.Adapt.semantics t.ctl else drawn
  let sent t ~a_to_b ~len = if a_to_b then Genie.Adapt.note_datagram t.ctl ~len

  (* Mid-run workload shifts: the transfer-size population jumps from
     mixed to large-only to small-only at the third marks, forcing the
     controller to re-migrate while everything else keeps firing. *)
  let step t i =
    if i = t.ctx.cfg.steps / 3 then begin
      t.sizes <- List.filter (fun s -> s >= 2178) sizes;
      note t.ctx "workload shift: large datagrams only"
    end
    else if i = 2 * t.ctx.cfg.steps / 3 then begin
      t.sizes <- List.filter (fun s -> s <= 1000) sizes;
      note t.ctx "workload shift: small datagrams only"
    end

  (* Oscillation audit: hysteresis bounds how often the controller may
     migrate, chaos or not. *)
  let drain t () =
    let epochs = Genie.Adapt.epochs t.ctl and moves = Genie.Adapt.migrations t.ctl in
    let cap = Genie.Adapt.migration_cap config ~epochs in
    if moves > cap then
      violation t.ctx ~invariant:"adapt-oscillation" ~host:"a" ~subject:"controller"
        "%d migrations exceed the dwell-derived cap of %d over %d epochs" moves cap
        epochs;
    note t.ctx "adaptation: %d epochs, %d migrations (cap %d), final %s" epochs moves
      cap
      (Sem.name (Genie.Adapt.semantics t.ctl))

  let regime t = { quiet with drain = drain t }
end

(* --- datagram plumbing the core and batch regimes share --------------- *)

(* Both regimes draw their transfers the same way, build buffers and
   inputs the same way, and feed one delivery audit and the controller's
   evidence. *)
module Dgram = struct
  type t = {
    ctx : ctx;
    adapt : Adaptation.t;
    sent : (int, int) Hashtbl.t;  (** transfer id -> length, per accepted output *)
    tainted : (int, unit) Hashtbl.t;
        (** ids whose source buffer the application poked, so their
            delivered bytes are legitimately unpredictable *)
  }

  let setup ctx adapt =
    { ctx; adapt; sent = Hashtbl.create 64; tainted = Hashtbl.create 16 }

  (* Degradation must never corrupt what it delivers: any completed input
     claiming [ok] whose buffer covers the full payload of a known,
     untainted transfer must hold exactly the sent pattern. *)
  let audit_delivery t host (res : Genie.Input_path.result) =
    if Genie.Input_path.ok res && res.seq >= 0 then
      match (res.buf, Hashtbl.find_opt t.sent res.seq) with
      | Some b, Some slen
        when slen = res.payload_len && b.Genie.Buf.len = slen
             && not (Hashtbl.mem t.tainted res.seq) ->
          let want = Genie.Buf.expected_pattern ~len:slen ~seed:res.seq in
          if not (Bytes.equal (Genie.Buf.read b) want) then
            violation t.ctx ~invariant:"byte-integrity" ~host:host.Genie.Host.name
              ~subject:(Printf.sprintf "transfer#%d" res.seq)
              "delivered %d bytes do not match the sent pattern" slen
      | _ -> ()

  let send_buffer t ~id send sem len =
    let ctx = t.ctx in
    if Sem.system_allocated sem then begin
      (* half the time, round-trip a region received from a previous
         system-allocated input instead of mapping a fresh one *)
      let reuse =
        if R.int ctx.rng ~bound:2 = 0 then begin
          let rec take acc = function
            | [] -> None
            | ((_, r) as x) :: rest
              when r.Vm.Region.valid
                   && r.Vm.Region.state = Vm.Region.Moved_in
                   && r.Vm.Region.wired = 0
                   && r.Vm.Region.npages * ctx.psize >= len ->
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
          let base = Vm.Address_space.base_addr r ~page_size:ctx.psize in
          (None, true, Genie.Buf.make send.s_space ~addr:base ~len)
      | None ->
          let r =
            Vm.Address_space.map_region send.s_space ~npages:(pages_for ctx 0 len)
              ~state:Vm.Region.Moved_in
          in
          let base = Vm.Address_space.base_addr r ~page_size:ctx.psize in
          (None, false, Genie.Buf.make send.s_space ~addr:base ~len)
    end
    else begin
      let r, buf = app_buffer ctx send len in
      let ao = { ao_id = id; ao_buf = buf; ao_region = r; ao_done = false } in
      send.s_app_outs <- ao :: send.s_app_outs;
      (Some ao, false, buf)
    end

  (* The spec and completion continuation of one input; callback and
     batched reap deliveries account identically through it. *)
  let input_entry t recv sem len =
    let expected = if R.int t.ctx.rng ~bound:8 = 0 then max 1 (len / 2) else len in
    let delivered res =
      decr t.ctx.live;
      incr t.ctx.completed;
      audit_delivery t recv.s_host res
    in
    if Sem.system_allocated sem then
      ( Genie.Input_path.Sys_alloc { space = recv.s_space; len = expected },
        fun res ->
          delivered res;
          match res.Genie.Input_path.buf with
          | Some b when Genie.Input_path.ok res ->
              let r =
                Vm.Address_space.region_of_addr recv.s_space ~vaddr:b.Genie.Buf.addr
              in
              recv.s_sys_ready <- (b, r) :: recv.s_sys_ready
          | _ -> () )
    else
      let r, buf = app_buffer t.ctx recv expected in
      ( Genie.Input_path.App_buffer buf,
        fun res ->
          delivered res;
          recv.s_freeable <- r :: recv.s_freeable )

  (* The draws that open every transfer, sequential or batched: the
     direction and VC, then per message the output semantics, the input
     semantics and the length. *)
  let route t =
    let a_to_b = R.int t.ctx.rng ~bound:2 = 0 in
    let send, recv = if a_to_b then (t.ctx.a, t.ctx.b) else (t.ctx.b, t.ctx.a) in
    let vc, _mode = pick t.ctx.rng vcs in
    (a_to_b, send, recv, vc)

  let message t ~a_to_b =
    let sem = Adaptation.out_sem t.adapt ~a_to_b (pick t.ctx.rng Sem.all) in
    let recv_sem = pick t.ctx.rng Sem.all in
    (sem, recv_sem, pick t.ctx.rng t.adapt.sizes)

  let label ~id ~send ~recv ~vc sem =
    Printf.sprintf "transfer#%d %s->%s vc=%d out=%s" id (sname send) (sname recv) vc
      (Sem.name sem)

  (* The bookkeeping of one output's fate, shared by the sequential and
     batched paths: an accepted send joins the delivery audit and the
     controller's evidence; a rejected one only counts, its undo being
     the caller's. *)
  let accepted t ~a_to_b ~id ~len label ~in_sem ~reused suffix =
    Hashtbl.replace t.sent id len;
    Adaptation.sent t.adapt ~a_to_b ~len;
    note t.ctx "%s in=%s len=%d%s%s" label
      (Option.fold ~none:"(none)" ~some:Sem.name in_sem)
      len
      (if reused then " reused-region" else "")
      suffix

  let rejected t label ~len why suffix =
    incr t.ctx.rejected;
    note t.ctx "%s len=%d REJECTED (%s)%s" label len why suffix
end

(* --- the batch regime -------------------------------------------------- *)

(* Transfers through the batch API: random-size [submit_batch] bursts
   with mid-batch cancels and per-entry backpressure, completions
   collected by randomly scheduled [reap_completions] calls plus a final
   reap at drain.  Accepted batched outputs wait in [out_waiting] for
   their [Out_complete] (transfer id -> app buffer to mark done), and
   accepted batched inputs in [in_waiting] for their [In_complete]
   ((host, vc, token) -> completion continuation). *)
module Batch = struct
  type t = {
    d : Dgram.t;
    out_waiting : (int, app_out) Hashtbl.t;
    in_waiting : (string * int * int, Genie.Input_path.result -> unit) Hashtbl.t;
  }

  let setup d =
    { d; out_waiting = Hashtbl.create 32; in_waiting = Hashtbl.create 32 }

  let reap_side t side =
    List.fold_left
      (fun acc (vc, ep) ->
        let cs = Genie.Endpoint.reap_completions ep in
        List.iter
          (function
            | Genie.Endpoint.Out_complete { seq } -> (
                match Hashtbl.find_opt t.out_waiting seq with
                | Some ao ->
                    ao.ao_done <- true;
                    Hashtbl.remove t.out_waiting seq
                | None -> () (* system-allocated output: nothing to mark *))
            | Genie.Endpoint.In_complete { token; result } -> (
                let key = (sname side, vc, token) in
                match Hashtbl.find_opt t.in_waiting key with
                | Some cont ->
                    Hashtbl.remove t.in_waiting key;
                    cont result
                | None -> () (* cancelled after arrival; already undone *)))
          cs;
        acc + List.length cs)
      0 side.s_eps

  let reap t () =
    let ctx = t.d.ctx in
    let n = reap_side t ctx.a + reap_side t ctx.b in
    note ctx "reap %d completions" n

  (* One batch per direction pair: k inputs posted with one
     [submit_batch] on the receiver, then the k matching outputs with one
     [submit_batch] on the sender.  A posted input may be cancelled under
     the batch, and under hog pressure the admission checks reject
     individual entries while the rest of the batch proceeds. *)
  let transfer t () =
    let d = t.d in
    let ctx = d.ctx in
    let a_to_b, send, recv, vc = Dgram.route d in
    let k = 1 + R.int ctx.rng ~bound:(min 6 (max 1 (max_in_flight - !(ctx.live)))) in
    (* [init]s apply in index order, so the draws replay from the seed *)
    let msgs =
      Array.init k (fun _ ->
          incr ctx.started;
          let id = !(ctx.started) in
          let sem, recv_sem, len = Dgram.message d ~a_to_b in
          (id, sem, recv_sem, len))
    in
    let inputs =
      Array.init k (fun i ->
          let _, _, sem, len = msgs.(i) in
          (sem, Dgram.input_entry d recv sem len))
    in
    let in_outcomes =
      Array.map (fun (sem, (spec, _)) -> Genie.Endpoint.Sub_input { sem; spec }) inputs
      |> Genie.Endpoint.submit_batch (List.assoc vc recv.s_eps)
    in
    let handles =
      Array.init k (fun i ->
          match in_outcomes.(i) with
          | Genie.Endpoint.In_accepted h ->
              incr ctx.live;
              Hashtbl.replace t.in_waiting
                (sname recv, vc, Genie.Endpoint.token h)
                (snd (snd inputs.(i)));
              Some h
          | Genie.Endpoint.Rejected `Again ->
              incr ctx.rejected;
              note ctx "batch input REJECTED (backpressure) on %s vc=%d" (sname recv)
                vc;
              None
          | Genie.Endpoint.Out_accepted _ -> assert false)
    in
    let uncancel_input i =
      match handles.(i) with
      | Some h when Genie.Endpoint.cancel h ->
          decr ctx.live;
          Hashtbl.remove t.in_waiting (sname recv, vc, Genie.Endpoint.token h);
          handles.(i) <- None;
          true
      | _ -> false
    in
    if R.int ctx.rng ~bound:4 = 0 then begin
      let i = R.int ctx.rng ~bound:k in
      if uncancel_input i then begin
        incr ctx.faults;
        note ctx "batch cancel input #%d on %s vc=%d" i (sname recv) vc
      end
    end;
    (* sender: one batched submit of the outputs whose buffers could be
       mapped; a transfer rejected before submission cancels its input *)
    let label i =
      match msgs.(i) with id, sem, _, _ -> Dgram.label ~id ~send ~recv ~vc sem
    in
    let outs =
      List.filter_map Fun.id
        (List.init k (fun i ->
             let id, sem, _, len = msgs.(i) in
             match Dgram.send_buffer d ~id send sem len with
             | exception Memory.Phys_mem.Out_of_frames ->
                 ignore (uncancel_input i);
                 Dgram.rejected d (label i) ~len "no frames" " batched";
                 None
             | ao, reused, buf ->
                 Genie.Buf.fill_pattern buf ~seed:id;
                 let sub = Genie.Endpoint.Sub_output { sem; buf; seq = Some id } in
                 Some (i, ao, reused, sub)))
    in
    let out_outcomes =
      Genie.Endpoint.submit_batch (List.assoc vc send.s_eps)
        (Array.of_list (List.map (fun (_, _, _, sub) -> sub) outs))
    in
    List.iteri
      (fun j (i, ao, reused, _) ->
        let id, _, recv_sem, len = msgs.(i) in
        match out_outcomes.(j) with
        | Genie.Endpoint.Out_accepted _ ->
            Option.iter (Hashtbl.replace t.out_waiting id) ao;
            Dgram.accepted d ~a_to_b ~id ~len (label i)
              ~in_sem:(Option.map (fun _ -> recv_sem) handles.(i))
              ~reused " batched"
        | Genie.Endpoint.Rejected `Again ->
            (* as on the sequential path: nothing was sent, so the posted
               input would wait forever — cancel it *)
            Option.iter (fun ao -> ao.ao_done <- true) ao;
            ignore (uncancel_input i);
            Dgram.rejected d (label i) ~len "backpressure" " batched"
        | Genie.Endpoint.In_accepted _ -> assert false)
      outs

  (* Every batched completion is queued once the world is quiet; an
     accepted batched operation never reaped means the batch path lost
     it. *)
  let drain t () =
    let ctx = t.d.ctx in
    if ctx.cfg.batch then begin
      let n = reap_side t ctx.a + reap_side t ctx.b in
      if n > 0 then note ctx "final reap %d completions" n
    end;
    let outs = Hashtbl.length t.out_waiting and ins = Hashtbl.length t.in_waiting in
    if outs <> 0 || ins <> 0 then
      violation ctx ~invariant:"transfer-accounting" ~host:"world"
        ~subject:"completions"
        "%d batched outputs and %d batched inputs never reaped after drain" outs ins

  let regime t =
    {
      quiet with
      actions = (if t.d.ctx.cfg.batch then [ (3, reap t) ] else []);
      drain = drain t;
    }
end

(* --- the core datagram regime ----------------------------------------- *)

(* Transfers under all eight semantics over the three datagram VCs, with
   sends to no receiver, pokes into in-flight buffers, frees, PDU
   corruption, pageout and mid-input region removal. *)
module Core = struct
  let post_input (d : Dgram.t) recv vc sem len =
    let ctx = d.ctx in
    let spec, on_complete = Dgram.input_entry d recv sem len in
    let ep = List.assoc vc recv.s_eps in
    incr ctx.live;
    match Genie.Endpoint.input ep ~sem ~spec ~on_complete with
    | Ok h -> Some h
    | Error `Again ->
        (* Frame exhaustion rejected the region allocation: the input
           was never posted.  The paired output turns into an orphan. *)
        decr ctx.live;
        incr ctx.rejected;
        note ctx "input REJECTED (backpressure) on %s vc=%d" (sname recv) vc;
        None

  let transfer (d : Dgram.t) ~orphan () =
    let ctx = d.ctx in
    let a_to_b, send, recv, vc = Dgram.route d in
    let sem, recv_sem, len = Dgram.message d ~a_to_b in
    incr ctx.started;
    let id = !(ctx.started) in
    let label = Dgram.label ~id ~send ~recv ~vc sem in
    match Dgram.send_buffer d ~id send sem len with
    | exception Memory.Phys_mem.Out_of_frames ->
        (* Mapping the send buffer ran out of frames (the region is
           already gone) and no input is posted yet: nothing to undo. *)
        Dgram.rejected d label ~len "no frames" ""
    | ao, reused, buf -> (
        Genie.Buf.fill_pattern buf ~seed:id;
        let handle =
          if orphan then begin
            incr ctx.faults;
            None
          end
          else post_input d recv vc recv_sem len
        in
        let mark_done () = Option.iter (fun ao -> ao.ao_done <- true) ao in
        match
          Genie.Endpoint.output (List.assoc vc send.s_eps) ~sem ~buf ~seq:id
            ~on_complete:mark_done ()
        with
        | Ok _ ->
            Dgram.accepted d ~a_to_b ~id ~len label
              ~in_sem:(Option.map (fun _ -> recv_sem) handle)
              ~reused
              (if orphan then " RECEIVER-ABSENT" else "")
        | Error `Again ->
            (* Backpressure: nothing was sent, so the posted input would
               wait forever — cancel it to keep the accounting closed. *)
            mark_done ();
            Option.iter (fun h -> if Genie.Endpoint.cancel h then decr ctx.live) handle;
            Dgram.rejected d label ~len "backpressure" "")

  let poke (d : Dgram.t) () =
    let ctx = d.ctx in
    match
      List.concat_map
        (fun side -> List.map (fun ao -> (side, ao)) side.s_app_outs)
        [ ctx.a; ctx.b ]
    with
    | [] -> note ctx "skip poke: no app output buffers"
    | cands ->
        let side, ao = pick ctx.rng cands in
        let blen = ao.ao_buf.Genie.Buf.len in
        let off = R.int ctx.rng ~bound:blen in
        let n = 1 + R.int ctx.rng ~bound:(min 16 (blen - off)) in
        let data = Bytes.make n (Char.chr (R.int ctx.rng ~bound:256)) in
        Vm.Address_space.write side.s_space ~addr:(ao.ao_buf.Genie.Buf.addr + off) data;
        Hashtbl.replace d.tainted ao.ao_id ();
        incr ctx.faults;
        note ctx "poke %s region@vpn%d off=%d len=%d%s" (sname side)
          ao.ao_region.Vm.Region.start_vpn off n
          (if ao.ao_done then "" else " IN-FLIGHT")

  let corrupt ctx () =
    let side = pick_side ctx in
    let vc, _ = pick ctx.rng vcs in
    Net.Adapter.corrupt_next_pdu side.s_host.Genie.Host.adapter ~vc;
    incr ctx.faults;
    note ctx "corrupt next pdu from %s vc=%d" (sname side) vc

  let pageout ctx () =
    let side = pick_side ctx in
    let target = 1 + R.int ctx.rng ~bound:8 in
    let evicted = Vm.Vm_sys.run_pageout side.s_host.Genie.Host.vm ~target in
    note ctx "pageout %s target=%d evicted=%d" (sname side) target evicted

  (* Remove a system-allocated input region mid-flight: exercises the
     dispose-time region check / ensure_region re-homing path.  Only
     emulated, unwired Moving_in regions qualify (non-emulated weak-move
     inputs keep their region wired for in-place DMA). *)
  let remove_moving_in ctx () =
    let cands side =
      List.filter_map
        (fun (e : Genie.Ledger.entry) ->
          if
            e.dir = Genie.Ledger.Input && e.sem.Sem.emulated
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
    match cands ctx.a @ cands ctx.b with
    | [] -> note ctx "skip remove-moving-in: none in flight"
    | l ->
        let space, r = pick ctx.rng l in
        Vm.Address_space.remove_region space r;
        incr ctx.faults;
        note ctx "remove region@vpn%d (npages=%d) MID-INPUT" r.Vm.Region.start_vpn
          r.Vm.Region.npages

  let free ctx () =
    let cands =
      List.concat_map
        (fun side ->
          List.map (fun r -> (side, `Freeable r)) side.s_freeable
          @ List.filter_map
              (fun ao -> if ao.ao_done then Some (side, `App_out ao) else None)
              side.s_app_outs
          @ List.map (fun sr -> (side, `Sys_ready sr)) side.s_sys_ready)
        [ ctx.a; ctx.b ]
    in
    match cands with
    | [] -> note ctx "skip free: nothing reclaimable"
    | _ -> (
        let side, c = pick ctx.rng cands in
        let remove r =
          if r.Vm.Region.valid && r.Vm.Region.wired = 0 then begin
            Vm.Address_space.remove_region side.s_space r;
            note ctx "free region@vpn%d on %s" r.Vm.Region.start_vpn (sname side)
          end
          else note ctx "skip free region@vpn%d: busy" r.Vm.Region.start_vpn
        in
        match c with
        | `Freeable r ->
            side.s_freeable <- List.filter (fun r' -> r' != r) side.s_freeable;
            remove r
        | `App_out ao ->
            side.s_app_outs <- List.filter (fun ao' -> ao' != ao) side.s_app_outs;
            remove ao.ao_region
        | `Sys_ready ((_, r) as sr) ->
            side.s_sys_ready <- List.filter (fun sr' -> sr' != sr) side.s_sys_ready;
            remove r)

  (* A pending endpoint input with no PDU ever coming at quiescence means
     a completion was silently lost. *)
  let drain ctx () =
    note ctx "drained; %d/%d transfers completed" !(ctx.completed) !(ctx.started);
    let pending =
      List.fold_left
        (fun acc (_, ep) -> acc + Genie.Endpoint.pending_inputs ep)
        0 (ctx.a.s_eps @ ctx.b.s_eps)
    in
    if pending <> 0 then
      violation ctx ~invariant:"transfer-accounting" ~host:"world" ~subject:"endpoints"
        "%d endpoint inputs still pending after drain" pending

  (* The regime's own state is its count of sends to no receiver: at
     most five a run, after which the action corrupts a PDU instead.
     Transfers go through the batch API while that regime is on. *)
  let regime (d : Dgram.t) batch =
    let ctx = d.ctx and orphans = ref 0 in
    let send () =
      if !(ctx.live) >= max_in_flight then run_a_while ctx
      else if ctx.cfg.batch then Batch.transfer batch ()
      else transfer d ~orphan:false ()
    in
    let orphan () =
      if !orphans >= 5 then corrupt ctx ()
      else begin
        incr orphans;
        transfer d ~orphan:true ()
      end
    in
    {
      quiet with
      actions =
        [
          (6, send);
          (4, fun () -> run_a_while ctx);
          (2, poke d);
          (2, free ctx);
          (1, orphan);
          (1, corrupt ctx);
          (1, pageout ctx);
          (1, remove_moving_in ctx);
        ];
      drain = drain ctx;
    }
end

(* --- the exhaustion regime --------------------------------------------- *)

(* Hold a big slice of the overlay pool or of free physical memory for a
   while, so concurrent transfers hit the typed degradation paths
   (fallback, borrow, reclaim, reject). *)
module Exhaustion = struct
  let hog ctx () =
    let side = pick_side ctx in
    let host = side.s_host in
    let hold_us = float_of_int (100 + R.int ctx.rng ~bound:500) in
    let delay = Simcore.Sim_time.of_us hold_us in
    let later f = Simcore.Engine.schedule host.Genie.Host.engine ~delay f in
    if R.int ctx.rng ~bound:2 = 0 then begin
      let k = Genie.Host.pool_level host in
      if k = 0 then note ctx "skip hog: pool already empty on %s" (sname side)
      else begin
        let taken = ref [] in
        for _ = 1 to k do
          match Genie.Host.pool_take_opt host with
          | Some f -> taken := f :: !taken
          | None -> ()
        done;
        later (fun () -> List.iter (Genie.Host.pool_put host) !taken);
        note ctx "hog %s overlay pool (%d frames) for %.0fus" (sname side) k hold_us
      end
    end
    else begin
      (* A deep hog first strips the pageable pages, so the admission
         check's reclaim retry finds nothing to evict and outputs see
         genuine [`Again] rejections; a shallow hog leaves reclaimable
         pages and exercises the retry-succeeds path instead. *)
      let deep = R.int ctx.rng ~bound:2 = 0 in
      if deep then ignore (Vm.Vm_sys.run_pageout host.Genie.Host.vm ~target:100_000);
      let free = Memory.Phys_mem.free_frames host.Genie.Host.vm.Vm.Vm_sys.phys in
      (* near-total: leave a handful of frames so single-page application
         faults still squeeze through while multi-page admissions fail *)
      let n = free - (1 + R.int ctx.rng ~bound:(if deep then 3 else 8)) in
      if n <= 0 then note ctx "skip hog: no free frames on %s" (sname side)
      else
        match Genie.Host.try_alloc_sys_frames host n with
        | None -> note ctx "hog failed: %d frames unavailable on %s" n (sname side)
        | Some frames ->
            later (fun () -> Genie.Host.free_sys_frames host frames);
            note ctx "hog %d sys frames on %s for %.0fus%s" n (sname side) hold_us
              (if deep then " DEEP" else "")
    end

  let regime ctx =
    { quiet with actions = (if ctx.cfg.exhaustion then [ (2, hog ctx) ] else []) }
end

(* --- the link-fault regime --------------------------------------------- *)

(* One-shot faults on the datagram VCs, and go-back-N reliable-transport
   sessions on their own VC pair (so their sequence numbers never mix
   with the datagram traffic) against drop / duplicate / delay / corrupt
   / dead-link schedules. *)
module Link_faults = struct
  let data_vc = 4
  let ack_vc = 5

  type t = {
    ctx : ctx;
    tx : Genie.Rel_channel.t;
    rx : Genie.Rel_channel.t;
    mutable dups : int;
    mutable sessions : int;
    mutable open_legs : int;
        (** legs of the current session still open: a new session starts
            only once sender and receiver have both finished, so
            sequence numbers of different sessions never interleave *)
  }

  let setup ctx =
    let pair vc = Genie.World.endpoint_pair ctx.w ~vc ~mode:Net.Adapter.Early_demux in
    let da, db = pair data_vc in
    let aa, ab = pair ack_vc in
    let channel ~data ~ack =
      Genie.Rel_channel.create ~chunk:8192 ~window:2 ~ack_timeout_us:3_000.
        ~max_retries:3 ~data ~ack Sem.emulated_copy
    in
    let tx = channel ~data:da ~ack:aa in
    let rx = channel ~data:db ~ack:ab in
    { ctx; tx; rx; dups = 0; sessions = 0; open_legs = 0 }

  (* Drops are reserved for the reliable-transport VC: a dropped plain
     datagram would leave its posted input pending forever, which is
     exactly what the transfer-accounting audit must flag as a bug
     elsewhere. *)
  let link_fault t () =
    let ctx = t.ctx in
    let side = pick_side ctx in
    let vc, _ = pick ctx.rng vcs in
    let f =
      match R.int ctx.rng ~bound:3 with
      | 0 -> Net.Adapter.Corrupt
      | 1 -> Net.Adapter.Delay_us (float_of_int (100 + R.int ctx.rng ~bound:3000))
      | _ ->
          if t.dups < 5 then begin
            t.dups <- t.dups + 1;
            Net.Adapter.Duplicate
          end
          else Net.Adapter.Corrupt
    in
    Net.Adapter.inject_fault side.s_host.Genie.Host.adapter ~vc f;
    incr ctx.faults;
    note ctx "link-fault %s vc=%d %s" (sname side) vc
      (match f with
      | Net.Adapter.Drop -> "drop"
      | Net.Adapter.Corrupt -> "corrupt"
      | Net.Adapter.Duplicate -> "duplicate"
      | Net.Adapter.Delay_us d -> Printf.sprintf "delay=%.0fus" d)

  let rel t () =
    let ctx = t.ctx in
    if t.open_legs > 0 then run_a_while ctx
    else begin
      t.sessions <- t.sessions + 1;
      let sid = t.sessions in
      let id = 1_000_000 + sid in
      let len = (8192 * (2 + R.int ctx.rng ~bound:4)) + R.int ctx.rng ~bound:1000 in
      let src_r, src = app_buffer ctx ctx.a len in
      Genie.Buf.fill_pattern src ~seed:id;
      let dst_r, dst = app_buffer ctx ctx.b len in
      let adapter = ctx.a.s_host.Genie.Host.adapter in
      let inject f =
        Net.Adapter.inject_fault adapter ~vc:data_vc f;
        incr ctx.faults
      in
      let mode_name =
        match R.int ctx.rng ~bound:5 with
        | 0 ->
            for _ = 1 to 1 + R.int ctx.rng ~bound:2 do
              inject Net.Adapter.Drop
            done;
            "lossy"
        | 1 ->
            inject Net.Adapter.Duplicate;
            "dup"
        | 2 ->
            let us = 2_000 + R.int ctx.rng ~bound:6_000 in
            inject (Net.Adapter.Delay_us (float_of_int us));
            "delay"
        | 3 ->
            inject Net.Adapter.Corrupt;
            "corrupt"
        | _ ->
            (* dead link: every data PDU drops until the sender hits the
               retransmission cap and gives up *)
            Net.Adapter.set_fault_rates adapter ~vc:data_vc ~rng:(R.split ctx.rng)
              {
                Net.Adapter.p_drop = 1.0;
                p_corrupt = 0.;
                p_duplicate = 0.;
                p_delay = 0.;
                delay_us = 0.;
              };
            incr ctx.faults;
            "dead"
      in
      t.open_legs <- 2;
      Genie.Rel_channel.recv t.rx ~deadline_us:60_000. ~buf:dst
        ~on_complete:(fun ~ok ->
          t.open_legs <- t.open_legs - 1;
          let want = Genie.Buf.expected_pattern ~len ~seed:id in
          if ok && not (Bytes.equal (Genie.Buf.read dst) want) then
            violation ctx ~invariant:"byte-integrity" ~host:(sname ctx.b)
              ~subject:(Printf.sprintf "rel#%d" sid)
              "reliable transfer delivered corrupted bytes (%d)" len;
          ctx.b.s_freeable <- dst_r :: ctx.b.s_freeable;
          note ctx "rel#%d receiver done ok=%b" sid ok)
        ();
      Genie.Rel_channel.send t.tx ~buf:src ~on_complete:(fun r ->
          t.open_legs <- t.open_legs - 1;
          Net.Adapter.clear_faults adapter ~vc:data_vc;
          ctx.a.s_freeable <- src_r :: ctx.a.s_freeable;
          match r with
          | Ok retx -> note ctx "rel#%d sender done retx=%d" sid retx
          | Error (`Gave_up retx) -> note ctx "rel#%d sender GAVE UP retx=%d" sid retx);
      note ctx "rel#%d start len=%d fault=%s" sid len mode_name
    end

  (* Transfer accounting: at quiescence every queued transfer, datagram
     input or session leg, must have completed or been cancelled. *)
  let drain t () =
    if !(t.ctx.live) <> 0 || t.open_legs <> 0 then
      violation t.ctx ~invariant:"transfer-accounting" ~host:"world" ~subject:"drain"
        "%d datagram inputs and %d rel legs still pending after drain" !(t.ctx.live)
        t.open_legs

  let regime ctx =
    let t = setup ctx in
    {
      actions = (if ctx.cfg.link_faults then [ (2, link_fault t); (2, rel t) ] else []);
      drain = drain t;
      count = (fun () -> t.sessions);
    }
end

(* --- the storage regime ------------------------------------------------ *)

(* File writes, reads, fsyncs and sendfile through each host's
   [Genie.File_io], audited against a flat-file model.  Sendfile rides
   its own fault-free VC: a dropped or corrupted file datagram would
   strand its preposted input, which the transfer-accounting audit must
   keep flagging as a bug elsewhere. *)
module Storage = struct
  let store_vc = 6

  (* A small cache with a fast flusher: three 64-page files per side
     against 48 frames keep eviction, batched writeback and throttled
     completions all active within a short schedule. *)
  let cache_config =
    {
      Store.Page_cache.default_config with
      Store.Page_cache.max_pages = 48;
      writeback_interval_us = 2_000.;
      dirty_high = 12;
      dirty_throttle = 18;
    }

  (* One file with its flat byte-array model.  [busy] serializes
     operations per file: the cache itself supports concurrent I/O, but
     the audit needs a stable expected image per in-flight operation. *)
  type file = { fd : int; mutable model : Bytes.t; mutable busy : bool }

  (* One host's cache and files, and its storage-VC endpoint: one sendfile
     in flight per side, so inputs preposted on the peer pair in order. *)
  type store = {
    side : side;
    fio : Genie.File_io.t;
    files : file array;
    ep : Genie.Endpoint.t;
    mutable sendfile_busy : bool;
  }

  type t = { ctx : ctx; sa : store; sb : store; mutable ops : int }

  let setup ctx =
    let mode = Net.Adapter.Early_demux in
    let ea, eb = Genie.World.endpoint_pair ctx.w ~vc:store_vc ~mode in
    let store side ep =
      let fio = Genie.File_io.create ~config:cache_config side.s_host in
      let files =
        Array.init 3 (fun _ ->
            { fd = Genie.File_io.open_file fio; model = Bytes.create 0; busy = false })
      in
      { side; fio; files; ep; sendfile_busy = false }
    in
    (* b's store first: a seed replays this construction order *)
    let sb = store ctx.b eb in
    let sa = store ctx.a ea in
    { ctx; sa; sb; ops = 0 }

  let model_write f ~off data =
    let len = Bytes.length data in
    let need = off + len in
    if Bytes.length f.model < need then begin
      let m = Bytes.make need '\000' in
      Bytes.blit f.model 0 m 0 (Bytes.length f.model);
      f.model <- m
    end;
    Bytes.blit data 0 f.model off len

  let quiet_files st = Array.to_list st.files |> List.filter (fun f -> not f.busy)
  let readable st = List.filter (fun f -> Bytes.length f.model > 0) (quiet_files st)

  let on_side t act () = act t (if pick_side t.ctx == t.ctx.a then t.sa else t.sb)

  (* Start [op] on quiet file [f], which stays busy until the completion
     handed to [op] runs; a cache-admission reject clears it and counts. *)
  let issue t st f ~what ~off ~len ?(accepted = ignore) op =
    let host = sname st.side in
    t.ops <- t.ops + 1;
    f.busy <- true;
    match op (fun () -> f.busy <- false) with
    | Ok () ->
        accepted ();
        note t.ctx "store %s %s fd=%d off=%d len=%d" what host f.fd off len
    | Error `Again ->
        f.busy <- false;
        incr t.ctx.rejected;
        note t.ctx "store %s REJECTED (backpressure) %s fd=%d len=%d" what host f.fd len

  let write t st =
    let ctx = t.ctx in
    match quiet_files st with
    | [] -> note ctx "skip store write: all files busy on %s" (sname st.side)
    | fs ->
        let f = pick ctx.rng fs in
        let len = pick ctx.rng sizes in
        let off = R.int ctx.rng ~bound:(max 1 ((64 * ctx.psize) - len)) in
        let seed = R.int ctx.rng ~bound:1_000_000 in
        let data = Genie.Buf.expected_pattern ~len ~seed in
        issue t st f ~what:"write" ~off ~len
          ~accepted:(fun () -> model_write f ~off data)
          (fun on_complete ->
            Genie.File_io.write st.fio ~fd:f.fd ~off ~data ~on_complete)

  let read t st =
    let ctx = t.ctx in
    match readable st with
    | [] -> note ctx "skip store read: no quiet non-empty file on %s" (sname st.side)
    | fs ->
        let f = pick ctx.rng fs in
        let size = Bytes.length f.model in
        let off = R.int ctx.rng ~bound:size in
        let len = 1 + R.int ctx.rng ~bound:(min (size - off) (32 * ctx.psize)) in
        (* the file is quiet for the whole flight, so the model slice
           snapshotted here is exactly what the read must return *)
        let expected = Bytes.sub f.model off len in
        issue t st f ~what:"read" ~off ~len (fun idle ->
            Genie.File_io.read st.fio ~fd:f.fd ~off ~len ~on_complete:(fun got ->
                idle ();
                if not (Bytes.equal got expected) then
                  violation ctx ~invariant:"byte-integrity" ~host:(sname st.side)
                    ~subject:(Printf.sprintf "file fd=%d" f.fd)
                    "store read off=%d len=%d diverges from the flat-file model" off
                    len))

  let fsync t st =
    match quiet_files st with
    | [] -> note t.ctx "skip fsync: all files busy on %s" (sname st.side)
    | fs ->
        let f = pick t.ctx.rng fs in
        t.ops <- t.ops + 1;
        f.busy <- true;
        Genie.File_io.fsync st.fio ~fd:f.fd ~on_complete:(fun () -> f.busy <- false);
        note t.ctx "store fsync %s fd=%d" (sname st.side) f.fd

  let cachectl t st =
    t.ops <- t.ops + 1;
    if R.int t.ctx.rng ~bound:2 = 0 then
      note t.ctx "store drop_caches %s evicted=%d" (sname st.side)
        (Genie.File_io.drop_caches st.fio)
    else begin
      Genie.File_io.writeback_now st.fio;
      note t.ctx "store writeback kick %s" (sname st.side)
    end

  let sendfile t st =
    let ctx = t.ctx in
    let pst = if st == t.sa then t.sb else t.sa in
    let host = sname st.side and peer = pst.side in
    if st.sendfile_busy then note ctx "skip sendfile: in flight on %s" host
    else
      match readable st with
      | [] -> note ctx "skip sendfile: no quiet non-empty file on %s" host
      | fs -> (
          let f = pick ctx.rng fs in
          let size = Bytes.length f.model in
          let cap = Net.Aal5.max_pdu - Proto.Dgram_header.length in
          let len = 1 + R.int ctx.rng ~bound:(min cap size) in
          let off = R.int ctx.rng ~bound:(size - len + 1) in
          let expected = Bytes.sub f.model off len in
          (* prepost the receiving buffer on the peer's storage endpoint;
             app-buffer inputs never reject *)
          let r, buf = app_buffer ctx peer len in
          let handle =
            Result.get_ok
            @@ Genie.Endpoint.input pst.ep ~sem:Sem.emulated_copy
                ~spec:(Genie.Input_path.App_buffer buf) ~on_complete:(fun res ->
                  peer.s_freeable <- r :: peer.s_freeable;
                  (* under exhaustion the input may complete as a typed
                     drop; only a delivery claiming [ok] owes the bytes *)
                  if
                    Genie.Input_path.ok res
                    && not
                         (res.Genie.Input_path.payload_len = len
                         && Bytes.equal (Genie.Buf.read buf) expected)
                  then
                    violation ctx ~invariant:"byte-integrity" ~host:(sname peer)
                      ~subject:(Printf.sprintf "sendfile fd=%d" f.fd)
                      "sendfile delivery off=%d len=%d diverges from the flat-file \
                       model"
                      off len)
          in
          t.ops <- t.ops + 1;
          f.busy <- true;
          st.sendfile_busy <- true;
          match
            Genie.File_io.sendfile st.fio st.ep ~fd:f.fd ~off ~len
              ~on_complete:(fun () ->
                f.busy <- false;
                st.sendfile_busy <- false)
              ()
          with
          | Ok seq ->
              note ctx "sendfile#%d %s->%s fd=%d off=%d len=%d" seq host (sname peer)
                f.fd off len
          | Error `Again ->
              incr ctx.rejected;
              f.busy <- false;
              st.sendfile_busy <- false;
              ignore (Genie.Endpoint.cancel handle : bool);
              note ctx "sendfile REJECTED (backpressure) %s fd=%d len=%d" host f.fd len)

  (* End state: sizes must match the flat-file model, every operation
     must have completed, and a full readback of each file must return
     exactly the model bytes — whatever the eviction, writeback and fsync
     interleaving did to the cache. *)
  let audit_file ctx st f =
    let subject = Printf.sprintf "file fd=%d" f.fd and host = sname st.side in
    let fail invariant fmt = violation ctx ~invariant ~host ~subject fmt in
    if f.busy then
      fail "transfer-accounting" "storage operation never completed after drain";
    let sz = Genie.File_io.size st.fio ~fd:f.fd and len = Bytes.length f.model in
    if sz <> len then
      fail "byte-integrity" "file size %d diverges from the model's %d" sz len;
    if len > 0 then begin
      let expected = Bytes.copy f.model in
      match
        Genie.File_io.read st.fio ~fd:f.fd ~off:0 ~len ~on_complete:(fun got ->
            if not (Bytes.equal got expected) then
              fail "byte-integrity"
                "end-state readback (%d bytes) diverges from the flat-file model" len)
      with
      | Ok () -> ()
      | Error `Again ->
          note ctx "skip end-state readback fd=%d: admission rejected" f.fd
    end

  let drain t () =
    List.iter
      (fun st ->
        Array.iter (audit_file t.ctx st) st.files;
        let pending = Genie.Endpoint.pending_inputs st.ep in
        if pending <> 0 then
          violation t.ctx ~invariant:"transfer-accounting" ~host:(sname st.side)
            ~subject:"sendfile" "%d storage-VC inputs still pending after drain"
            pending)
      [ t.sa; t.sb ];
    Genie.World.run t.ctx.w

  (* Off, the regime builds nothing: no storage VC, no caches. *)
  let regime ctx =
    if not ctx.cfg.storage then quiet
    else
      let t = setup ctx in
      {
        actions =
          [
            (3, on_side t write);
            (2, on_side t read);
            (1, on_side t fsync);
            (1, on_side t sendfile);
            (1, on_side t cachectl);
          ];
        drain = drain t;
        count = (fun () -> t.ops);
      }
end

(* --- the fabric-churn regime ------------------------------------------- *)

(* Flow open/close storms against a [Genie.Flow_table] — the slab the
   fabric engine recycles its flow state machines through — audited
   against a shadow model.  The properties that make stale handles safe
   at datacenter scale: a fresh handle never equals any handle that is
   (or was ever) live with a different tenant, freed handles go inert
   ([get] = [None], [free] = [false]) rather than aliasing the slot's
   next tenant, and the live count tracks the model exactly. *)
module Fabric_churn = struct
  let regime ctx =
    let ops = ref 0 in
    let table = Genie.Flow_table.create ~initial:4 ~dummy:(-1) () in
    let live : (Genie.Flow_table.handle, int) Hashtbl.t = Hashtbl.create 64 in
    let ever : (Genie.Flow_table.handle, unit) Hashtbl.t = Hashtbl.create 64 in
    let retired = Array.make 64 None in
    let retired_at = ref 0 and next_payload = ref 0 in
    let fail fmt =
      violation ctx ~invariant:"flow-table" ~host:"world" ~subject:"fabric" fmt
    in
    let churn () =
      let storm = 8 + R.int ctx.rng ~bound:57 in
      note ctx "fabric churn storm of %d ops (live %d)" storm
        (Genie.Flow_table.live table);
      for _ = 1 to storm do
        incr ops;
        let roll = R.int ctx.rng ~bound:10 in
        if roll < 5 then begin
          (* open: a fresh handle must be live, carry its payload, and
             never collide with a live handle. *)
          let p = !next_payload in
          incr next_payload;
          let h = Genie.Flow_table.alloc table p in
          if Hashtbl.mem ever h then fail "free list reissued handle %#x" h;
          Hashtbl.replace ever h ();
          if Genie.Flow_table.get table h <> Some p then
            fail "fresh handle %#x does not hold its payload" h;
          Hashtbl.replace live h p
        end
        else if roll < 8 then begin
          (* close: a live handle picked from the shadow model. *)
          match
            Hashtbl.fold
              (fun h p acc -> match acc with Some _ -> acc | None -> Some (h, p))
              live None
          with
          | None -> ()
          | Some (h, p) ->
              if Genie.Flow_table.get table h <> Some p then
                fail "live handle %#x lost its payload" h;
              if not (Genie.Flow_table.free table h) then
                fail "freeing live handle %#x refused" h;
              if Genie.Flow_table.is_live table h then
                fail "handle %#x still live after free" h;
              Hashtbl.remove live h;
              retired.(!retired_at mod Array.length retired) <- Some h;
              incr retired_at
        end
        else begin
          (* stale probe: generations are monotonic, so a retired handle
             can never come back live — it must be fully inert, even when
             its slot has a new tenant. *)
          match retired.(R.int ctx.rng ~bound:(Array.length retired)) with
          | None -> ()
          | Some h ->
              if Genie.Flow_table.get table h <> None then
                fail "stale handle %#x still reads a payload" h;
              if Genie.Flow_table.free table h then
                fail "stale handle %#x freed the slot's new tenant" h
        end
      done;
      if Genie.Flow_table.live table <> Hashtbl.length live then
        fail "live count %d diverges from the model's %d" (Genie.Flow_table.live table)
          (Hashtbl.length live);
      if Genie.Flow_table.high_water table > Genie.Flow_table.capacity table then
        fail "high water %d exceeds capacity %d"
          (Genie.Flow_table.high_water table)
          (Genie.Flow_table.capacity table)
    in
    { quiet with actions = [ (2, churn) ]; count = (fun () -> !ops) }
end

(* The regimes a run can leave out, in [genie_cli check]'s flag order. *)
let switches =
  [
    {
      name = "exhaustion";
      doc =
        "Disable the memory-hog actions that drive the hosts into genuine frame and \
         overlay-pool exhaustion.";
      off = (fun c -> { c with exhaustion = false });
    };
    {
      name = "faults";
      doc =
        "Disable the deterministic link-fault schedules (drop, corrupt, duplicate, \
         delay) and the reliable-transport sessions that recover from them.";
      off = (fun c -> { c with link_faults = false });
    };
    {
      name = "batch";
      doc =
        "Drive every transfer through the single-shot input and output calls instead \
         of the batch API (submit_batch / reap_completions bursts with mid-batch \
         cancels) — isolates batch-path failures.";
      off = (fun c -> { c with batch = false });
    };
    {
      name = "storage";
      doc =
        "Disable the storage regime (file writes, reads, fsyncs and sendfile through \
         the simulated page cache, audited against a flat-file model) and fuzz the \
         network paths alone.";
      off = (fun c -> { c with storage = false });
    };
  ]

(* --- the driver -------------------------------------------------------- *)

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
  (* world construction order: the datagram VCs and address spaces, then
     storage, the controller, the session VCs *)
  let ctx = make_ctx ?trace cfg in
  let storage = Storage.regime ctx in
  let controller = Adaptation.setup ctx in
  let link = Link_faults.regime ctx in
  let fabric = Fabric_churn.regime ctx in
  let datagrams = Dgram.setup ctx controller in
  let bursts = Batch.setup datagrams in
  let core = Core.regime datagrams bursts
  and batch = Batch.regime bursts
  and adapt = Adaptation.regime controller in
  let actions =
    List.concat_map
      (fun r -> r.actions)
      [ core; batch; Exhaustion.regime ctx; link; storage; fabric; adapt ]
  in
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 actions in
  let rec dispatch roll = function
    | [] -> assert false
    | (w, f) :: rest -> if roll < w then f () else dispatch (roll - w) rest
  in
  let hosts = [ ctx.a.s_host; ctx.b.s_host ] in
  let violations = ref [] in
  let steps_run = ref 0 in
  let check () =
    match ctx.audit @ Invariants.check_world hosts with
    | [] -> false
    | vs ->
        violations := vs;
        true
  in
  (try
     for i = 1 to cfg.steps do
       steps_run := i;
       Adaptation.step controller i;
       dispatch (R.int ctx.rng ~bound:total) actions;
       if i mod cfg.check_every = 0 && check () then raise Exit
     done;
     (* drain everything still in flight and audit the quiesced world:
        storage's readback runs the world once more and the final reap
        completes inputs, so both come before the tallies are read *)
     Genie.World.run ctx.w;
     List.iter (fun r -> r.drain ()) [ storage; batch; link; core; adapt ];
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
          (Simcore.Tracer.tail host.Genie.Host.tracer tail_events))
      hosts
  in
  let events =
    List.map
      (fun k ->
        ( k,
          List.fold_left
            (fun acc (h : Genie.Host.t) ->
              acc + Simcore.Tracer.counter h.tracer ~host:h.name k)
            0 hosts ))
      event_keys
  in
  let digest =
    let b = Buffer.create 128 in
    Buffer.add_string b
      (Printf.sprintf
         "seed=%d;steps=%d;run=%d;started=%d;completed=%d;faults=%d;rejected=%d;rel=%d;store=%d;fab=%d;t=%.3f;viol=%d;"
         cfg.seed cfg.steps !steps_run !(ctx.started) !(ctx.completed) !(ctx.faults)
         !(ctx.rejected) (link.count ()) (storage.count ()) (fabric.count ())
         (Genie.Host.now_us ctx.a.s_host)
         (List.length !violations));
    List.iter (fun (k, n) -> Buffer.add_string b (Printf.sprintf "%s=%d;" k n)) events;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  {
    steps_run = !steps_run;
    stop = (if !violations = [] then Completed else Violations !violations);
    schedule = List.rev ctx.schedule;
    transfers_started = !(ctx.started);
    transfers_completed = !(ctx.completed);
    faults_injected = !(ctx.faults);
    rejected = !(ctx.rejected);
    rel_sessions = link.count ();
    storage_ops = storage.count ();
    fabric_ops = fabric.count ();
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
