type rx_mode = Early_demux | Pooled | Outboard

type posted = {
  vc : int;
  token : int;
  hdr_desc : Memory.Io_desc.t;
  mutable payload_desc : Memory.Io_desc.t option;
  ready : unit -> Memory.Io_desc.t;
}

type completion =
  | Demuxed of { posted : posted; payload_len : int; overrun : bool }
  | Pooled_chain of {
      frames : Memory.Frame.t list;
      hdr_len : int;
      payload_len : int;
    }
  | Outboard_stored of { id : int; hdr_len : int; payload_len : int }

type rx_result = { vc : int; completion : completion; crc_ok : bool }

(* Receiver-side state for the PDU currently arriving on a VC.  A pooled
   flow that hits overlay-pool exhaustion mid-PDU flips [dropping]: the
   frames taken so far go back to the pool and the rest of the PDU is
   swallowed, surfacing as an empty chain with [crc_ok = false]. *)
type rx_partial =
  | Rx_idle
  | Rx_demux of { posted : posted; mutable overrun : bool }
  | Rx_pooled of {
      mutable frames : Memory.Frame.t list; (* reversed *)
      mutable dropping : bool;
    }
  | Rx_outboard of { buf : Buffer.t; id : int }

type fault = Drop | Corrupt | Duplicate | Delay_us of float

type fault_rates = {
  p_drop : float;
  p_corrupt : float;
  p_duplicate : float;
  p_delay : float;
  delay_us : float;
}

(* Per-VC fault schedule on the sending adapter.  One-shot faults are
   consumed in order before the probabilistic rates draw; all randomness
   comes from the caller-supplied [Simcore.Rng], so a failure run replays
   exactly from its seed.  [gate] keeps arrivals monotonic within the VC
   (ATM preserves cell order per VC) even when PDUs are delayed. *)
type fault_state = {
  oneshot : fault Queue.t;
  mutable rates : fault_rates option;
  mutable frng : Simcore.Rng.t option;
  mutable gate : Simcore.Sim_time.t;
}

type rx_flow = {
  mutable partial : rx_partial;
  mutable crc : Crc32.t;
  mutable received : int;  (* PDU bytes scattered so far *)
}

type t = {
  engine : Simcore.Engine.t;
  p : Net_params.t;
  page_size : int;
  name : string;
  mutable peer : t option;
  mutable tx_busy_until : Simcore.Sim_time.t;
  rx_modes : (int, rx_mode) Hashtbl.t;
  posted : (int, posted Queue.t) Hashtbl.t;
  flows : (int, rx_flow) Hashtbl.t;
  mutable pool_supply : unit -> Memory.Frame.t option;
  mutable pool_return : Memory.Frame.t -> unit;
  mutable rx_complete : rx_result -> unit;
  outboard : (int, bytes) Hashtbl.t;
  mutable next_outboard_id : int;
  tx_queue : tx_job Queue.t;
  resumes : (unit -> unit) Queue.t;
      (* unparked mid-PDU continuations; run before fresh tx jobs *)
  mutable tx_active : bool;
  credits : (int, credit_state) Hashtbl.t;
  faults : (int, fault_state) Hashtbl.t;  (* sender-side, per VC *)
  tx_pool : Memory.Buf_pool.t;  (* recycled burst staging buffers *)
  mutable trace : Simcore.Tracer.scope option;
}

(* Credit arbitration is an active-set discipline: a VC whose next burst
   lacks credits *parks* — the transmitter is released to other VCs and
   the parked continuation waits on this record, while later jobs of the
   same VC divert to [blocked] so per-VC PDU order is preserved.  A
   credit grant touches only its own VC: when the window covers the
   parked burst the continuation moves to the adapter's resume queue and
   the diverted jobs rejoin the transmit queue.  Nothing on the credit
   or transmit path ever scans the set of VCs, so thousands of VCs with
   independent windows contend in O(1) per event — and one stalled VC
   no longer head-of-line blocks the whole adapter. *)
and credit_state = {
  limit : int;
  mutable available : int;
  mutable parked : (int * (unit -> unit)) option;
      (* cells the parked burst needs, and its continuation *)
  blocked : tx_job Queue.t;  (* same-VC jobs diverted while parked *)
}

and tx_job = {
  job_vc : int;
  job_fl : flight;
  job_done : unit -> unit;
}

and flight = {
  fl_vc : int;
  fl_hdr : bytes;
  fl_desc : Memory.Io_desc.t;
  fl_iov : Memory.Iovec.t;  (* hdr ++ payload, zero-copy *)
  fl_total : int;  (* hdr + payload *)
  fl_hdr_len : int;
  mutable fl_crc : Crc32.t;
  mutable fl_span : int;  (* typed-trace span id of the whole flight *)
  mutable fl_fault : fault option;  (* decided once, at transmit *)
}

let create engine p ~page_size ~name =
  {
    engine;
    p;
    page_size;
    name;
    peer = None;
    tx_busy_until = Simcore.Sim_time.zero;
    rx_modes = Hashtbl.create 8;
    posted = Hashtbl.create 8;
    flows = Hashtbl.create 8;
    pool_supply = (fun () -> None);
    pool_return = (fun _ -> ());
    rx_complete = (fun _ -> ());
    outboard = Hashtbl.create 8;
    next_outboard_id = 0;
    tx_queue = Queue.create ();
    resumes = Queue.create ();
    tx_active = false;
    credits = Hashtbl.create 4;
    faults = Hashtbl.create 4;
    tx_pool = Memory.Buf_pool.create ();
    trace = None;
  }

let connect a b =
  a.peer <- Some b;
  b.peer <- Some a

let params t = t.p
let set_trace_scope t scope = t.trace <- Some scope

let traced t f =
  match t.trace with
  | Some s when Simcore.Tracer.on s -> f s
  | _ -> ()

(* Counters are also accumulated in count-only mode ([add_counter]
   self-guards), so keep them out of the [traced] event closures. *)
let count t ?n name =
  match t.trace with
  | Some s -> Simcore.Tracer.add_counter s ?n name
  | None -> ()

let set_rx_mode t ~vc mode = Hashtbl.replace t.rx_modes vc mode
let rx_mode t vc = Option.value ~default:Early_demux (Hashtbl.find_opt t.rx_modes vc)
let set_pool_supply t supply = t.pool_supply <- supply
let set_pool_return t ret = t.pool_return <- ret
let set_rx_complete t handler = t.rx_complete <- handler

let posted_queue t vc =
  match Hashtbl.find_opt t.posted vc with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add t.posted vc q;
    q

let post_input t (posted : posted) = Queue.add posted (posted_queue t posted.vc)
let posted_count t ~vc = Queue.length (posted_queue t vc)
let cancel_posted t ~vc ~token =
  let q = posted_queue t vc in
  let keep = Queue.create () in
  let found = ref false in
  Queue.iter
    (fun (p : posted) -> if p.token = token then found := true else Queue.add p keep)
    q;
  Queue.clear q;
  Queue.transfer keep q;
  !found

let flow t vc =
  match Hashtbl.find_opt t.flows vc with
  | Some f -> f
  | None ->
    let f = { partial = Rx_idle; crc = Crc32.init; received = 0 } in
    Hashtbl.add t.flows vc f;
    f

(* {1 Credit-based flow control (Credit Net, paper ref [14])} *)

let set_credit_limit t ~vc ~cells =
  if cells <= 0 then invalid_arg "Adapter.set_credit_limit: cells must be positive";
  Hashtbl.replace t.credits vc
    { limit = cells; available = cells; parked = None; blocked = Queue.create () }

let credits_available t ~vc =
  Option.map (fun cs -> cs.available) (Hashtbl.find_opt t.credits vc)

(* {1 Link-fault schedule} *)

let fault_name = function
  | Drop -> "drop"
  | Corrupt -> "corrupt"
  | Duplicate -> "duplicate"
  | Delay_us _ -> "delay"

let fault_state t vc =
  match Hashtbl.find_opt t.faults vc with
  | Some fs -> fs
  | None ->
    let fs =
      { oneshot = Queue.create (); rates = None; frng = None;
        gate = Simcore.Sim_time.zero }
    in
    Hashtbl.add t.faults vc fs;
    fs

let inject_fault t ~vc fault = Queue.add fault (fault_state t vc).oneshot

let set_fault_rates t ~vc ~rng rates =
  let p =
    rates.p_drop +. rates.p_corrupt +. rates.p_duplicate +. rates.p_delay
  in
  if p > 1.0 then invalid_arg "Adapter.set_fault_rates: probabilities sum > 1";
  let fs = fault_state t vc in
  fs.rates <- Some rates;
  fs.frng <- Some rng

let clear_faults t ~vc = Hashtbl.remove t.faults vc

let corrupt_next_pdu t ~vc = inject_fault t ~vc Corrupt

(* Decide, at transmit time, the fate of one PDU: a queued one-shot fault
   wins; otherwise a single Rng draw against the cumulative rates.
   Fault-free VCs cost one Hashtbl lookup and draw nothing. *)
let decide_fault t ~vc =
  match Hashtbl.find_opt t.faults vc with
  | None -> None
  | Some fs -> (
    let decided =
      match Queue.take_opt fs.oneshot with
      | Some _ as f -> f
      | None -> (
        match (fs.rates, fs.frng) with
        | Some r, Some rng ->
          let x = Simcore.Rng.float rng in
          if x < r.p_drop then Some Drop
          else if x < r.p_drop +. r.p_corrupt then Some Corrupt
          else if x < r.p_drop +. r.p_corrupt +. r.p_duplicate then
            Some Duplicate
          else if
            x < r.p_drop +. r.p_corrupt +. r.p_duplicate +. r.p_delay
          then Some (Delay_us r.delay_us)
          else None
        | _ -> None)
    in
    (match decided with
    | Some f ->
      traced t (fun s ->
          Simcore.Tracer.instant s "fault.inject"
            ~args:
              [
                ("vc", Simcore.Tracer.Int vc);
                ("kind", Simcore.Tracer.Str (fault_name f));
              ])
    | None -> ());
    decided)

(* Flip one byte of the first burst of a PDU whose fault is [Corrupt];
   the sender-side CRC has already been computed, so the receiver's check
   fails exactly as for a line error. *)
let maybe_corrupt t fl ~first_burst (chunk : bytes) ~len =
  match fl.fl_fault with
  | Some Corrupt when first_burst && len > 0 ->
    count t "pdu_corrupts";
    Bytes.set chunk 0 (Char.chr (Char.code (Bytes.get chunk 0) lxor 0xFF))
  | _ -> ()

(* {1 Receive path} *)

let start_rx t vc total_len =
  let f = flow t vc in
  f.crc <- Crc32.init;
  f.received <- 0;
  let partial =
    match rx_mode t vc with
    | Outboard ->
      let id = t.next_outboard_id in
      t.next_outboard_id <- id + 1;
      Rx_outboard { buf = Buffer.create total_len; id }
    | Pooled -> Rx_pooled { frames = []; dropping = false }
    | Early_demux -> (
      match Queue.take_opt (posted_queue t vc) with
      | Some posted -> Rx_demux { posted; overrun = false }
      | None ->
        Rx_pooled { frames = []; dropping = false } (* no posted: fall back *))
  in
  f.partial <- partial

(* Scatter PDU bytes [f.received, f.received+len) into the pooled chain,
   allocating pool pages on demand.  Returns [false] — leaving the chain
   updated as far as it got — when the pool supply runs dry mid-PDU; the
   caller then flips the flow into dropping mode. *)
let pooled_scatter t st (chunk : bytes) ~chunk_len pdu_off =
  let rec put frames_rev filled src_off remaining =
    if remaining = 0 then (frames_rev, true)
    else begin
      let page_off = filled mod t.page_size in
      let fresh =
        if page_off = 0 && filled = List.length frames_rev * t.page_size then
          match t.pool_supply () with
          | Some frame -> Some (frame :: frames_rev)
          | None -> None
        else Some frames_rev
      in
      match fresh with
      | None -> (frames_rev, false)
      | Some [] -> assert false
      | Some (frame :: _ as frames_rev) ->
        let n = min remaining (t.page_size - page_off) in
        Memory.Frame.blit_in frame ~dst_off:page_off ~src:chunk ~src_off ~len:n;
        put frames_rev (filled + n) (src_off + n) (remaining - n)
    end
  in
  match st with
  | Rx_pooled s ->
    let frames, ok = put s.frames pdu_off (0 : int) chunk_len in
    s.frames <- frames;
    ok
  | Rx_idle | Rx_demux _ | Rx_outboard _ -> assert false

let demux_scatter (posted : posted) (chunk : bytes) ~chunk_len pdu_off ~hdr_len
    ~overrun =
  (* Header portion of this chunk. *)
  let hdr_take = max 0 (min (hdr_len - pdu_off) chunk_len) in
  if hdr_take > 0 then
    Memory.Io_desc.scatter posted.hdr_desc ~off:pdu_off ~src:chunk ~src_off:0
      ~len:hdr_take;
  (* Payload portion. *)
  let pay_chunk = chunk_len - hdr_take in
  if pay_chunk > 0 then begin
    let desc =
      match posted.payload_desc with
      | Some d -> d
      | None ->
        let d = posted.ready () in
        posted.payload_desc <- Some d;
        d
    in
    let pay_off = pdu_off + hdr_take - hdr_len in
    let capacity = Memory.Io_desc.total_len desc in
    let n = max 0 (min pay_chunk (capacity - pay_off)) in
    if n > 0 then
      Memory.Io_desc.scatter desc ~off:pay_off ~src:chunk ~src_off:hdr_take ~len:n;
    if n < pay_chunk then overrun ()
  end

(* Stage one burst into a pooled buffer with a single gather pass over
   the flight's hdr++payload view.  Bursts must be materialized at
   serialization time — weak-integrity overwrites corrupt only later
   bursts — so this copy is semantic, but it is the only one: the
   buffer is recycled and the gather never builds intermediate bytes. *)
let gather_pdu_range t fl ~off ~len =
  let out = Memory.Buf_pool.take t.tx_pool ~len in
  Memory.Iovec.blit_to (Memory.Iovec.sub fl.fl_iov ~off ~len) ~dst:out
    ~dst_off:0;
  out

let cell_time_ns t = Net_params.cell_time_ns t.p

(* Receiving a burst grants credits back to the sender; a grant may
   unpark a credit-stalled VC and restart the transmitter; the
   transmitter delivers bursts to the peer's receive path.  One
   mutually recursive event loop. *)

let rec grant_credits t ~vc ~cells =
  match Hashtbl.find_opt t.credits vc with
  | None -> ()
  | Some cs ->
    cs.available <- min cs.limit (cs.available + cells);
    (match cs.parked with
    | Some (needed, resume) when cs.available >= needed ->
      (* The parked burst now fits.  Its continuation goes on the resume
         queue — it runs before fresh jobs and without re-paying
         tx_setup, since its PDU is already mid-flight — and the VC's
         diverted jobs rejoin the transmit queue behind it. *)
      cs.parked <- None;
      Queue.add resume t.resumes;
      Queue.transfer cs.blocked t.tx_queue;
      pump t
    | _ -> ())

(* [chunk] is a recycled staging buffer that may be larger than the
   burst; only the first [chunk_len] bytes are live. *)
and rx_burst t ~vc ~chunk ~chunk_len ~pdu_off ~hdr_len ~total_len ~is_last
    ~tx_crc ~cells =
  (* Consuming the burst frees receive buffering: return the credits to
     the sender after the propagation delay. *)
  (match t.peer with
  | Some sender ->
    Simcore.Engine.schedule sender.engine ~delay:t.p.Net_params.prop_delay
      (fun () -> grant_credits sender ~vc ~cells)
  | None -> ());
  if pdu_off = 0 then start_rx t vc total_len;
  let f = flow t vc in
  f.crc <- Crc32.update f.crc chunk ~off:0 ~len:chunk_len;
  (match f.partial with
  | Rx_idle -> assert false
  | Rx_demux d ->
    demux_scatter d.posted chunk ~chunk_len pdu_off ~hdr_len ~overrun:(fun () ->
        d.overrun <- true)
  | Rx_pooled s ->
    if not s.dropping then
      if not (pooled_scatter t f.partial chunk ~chunk_len pdu_off) then begin
        (* Overlay pool dry mid-PDU: hand back what was taken and swallow
           the rest of this PDU.  The host sees an empty chain with
           [crc_ok = false], the same typed failure as a line error. *)
        s.dropping <- true;
        List.iter t.pool_return (List.rev s.frames);
        s.frames <- [];
        count t "rx_drop_nopool";
        traced t (fun sc ->
            Simcore.Tracer.instant sc "rx.drop_nopool"
              ~args:[ ("vc", Simcore.Tracer.Int vc) ])
      end
  | Rx_outboard { buf; _ } -> Buffer.add_subbytes buf chunk 0 chunk_len);
  f.received <- f.received + chunk_len;
  if is_last then begin
    let dropped_flow =
      match f.partial with Rx_pooled s -> s.dropping | _ -> false
    in
    let crc_ok = Crc32.finish f.crc = tx_crc && not dropped_flow in
    let completion =
      match f.partial with
      | Rx_idle -> assert false
      | Rx_demux d ->
        Demuxed
          { posted = d.posted; payload_len = total_len - hdr_len; overrun = d.overrun }
      | Rx_pooled s ->
        Pooled_chain
          { frames = List.rev s.frames; hdr_len; payload_len = total_len - hdr_len }
      | Rx_outboard { buf; id } ->
        Hashtbl.replace t.outboard id (Buffer.to_bytes buf);
        Outboard_stored { id; hdr_len; payload_len = total_len - hdr_len }
    in
    f.partial <- Rx_idle;
    count t "rx_pdus";
    traced t (fun s ->
        Simcore.Tracer.instant s "rx.pdu"
          ~args:
            [
              ("vc", Simcore.Tracer.Int vc);
              ("bytes", Simcore.Tracer.Int total_len);
              ("crc_ok", Simcore.Tracer.Bool crc_ok);
            ]);
    (* Fixed adapter completion cost before the host sees the interrupt. *)
    Simcore.Engine.schedule t.engine ~delay:t.p.Net_params.rx_fixed (fun () ->
        t.rx_complete { vc; completion; crc_ok })
  end

(* Transmit one burst of a job; [cells_done] cells are already on the
   wire.  Bursts are gathered from host memory when their serialization
   begins (weak-integrity overwrites corrupt only later bursts) and wait
   for flow-control credits when the VC is credited. *)
and send_burst t job ~i ~cells_done =
  let fl = job.job_fl in
  let peer = match t.peer with Some p -> p | None -> assert false in
  let total_cells = Aal5.cells_for_len fl.fl_total in
  let burst_bytes = t.p.Net_params.burst_pages * t.page_size in
  let nbursts = max 1 ((fl.fl_total + burst_bytes - 1) / burst_bytes) in
  let off = i * burst_bytes in
  let len = min burst_bytes (fl.fl_total - off) in
  let is_last = i = nbursts - 1 in
  (* Cells serialize the contiguous byte stream: after the first b bytes
     ceil(b/48) cells are used, and the last burst also carries the
     trailer and padding.  Attributing per-burst cells by cumulative
     boundaries keeps the count exact; rounding each burst up
     independently can overshoot the total and give a tiny final burst a
     negative count. *)
  let end_cells =
    if is_last then total_cells
    else (off + len + Aal5.cell_payload - 1) / Aal5.cell_payload
  in
  (* A tiny final burst can contribute zero new cells: its bytes ride in
     the previous burst's final (padded) cell. *)
  let burst_cells = end_cells - cells_done in
  assert (burst_cells >= 0);
  let proceed () =
    (match Hashtbl.find_opt t.credits fl.fl_vc with
    | Some cs -> cs.available <- cs.available - burst_cells
    | None -> ());
    let chunk = gather_pdu_range t fl ~off ~len in
    fl.fl_crc <- Crc32.update fl.fl_crc chunk ~off:0 ~len;
    maybe_corrupt t fl ~first_burst:(off = 0) chunk ~len;
    let serialization =
      Simcore.Sim_time.of_ns
        (int_of_float (Float.round (float_of_int burst_cells *. cell_time_ns t)))
    in
    let end_time = Simcore.Sim_time.add (Simcore.Engine.now t.engine) serialization in
    t.tx_busy_until <- Simcore.Sim_time.max t.tx_busy_until end_time;
    traced t (fun s ->
        Simcore.Tracer.complete s "tx.burst"
          ~start:(Simcore.Engine.now t.engine)
          ~dur:serialization
          ~args:
            [
              ("vc", Simcore.Tracer.Int fl.fl_vc);
              ("bytes", Simcore.Tracer.Int len);
              ("cells", Simcore.Tracer.Int burst_cells);
            ]);
    let arrival_base =
      let a = Simcore.Sim_time.add end_time t.p.Net_params.prop_delay in
      match fl.fl_fault with
      | Some (Delay_us d) -> Simcore.Sim_time.add a (Simcore.Sim_time.of_us d)
      | _ -> a
    in
    (* VCs with a fault schedule keep arrivals monotonic (ATM preserves
       per-VC cell order): a delayed PDU gates later PDUs on the same VC
       behind it, while other VCs overtake — delay-reorder. *)
    let arrival =
      match Hashtbl.find_opt t.faults fl.fl_vc with
      | None -> arrival_base
      | Some fs ->
        let a = Simcore.Sim_time.max arrival_base fs.gate in
        fs.gate <- a;
        a
    in
    let tx_crc = Crc32.finish fl.fl_crc in
    (match fl.fl_fault with
    | Some Drop ->
      (* The cells serialize and the receiver discards them: no rx_burst,
         but buffering is still consumed and freed, so the credits come
         back on the usual schedule. *)
      if off = 0 then begin
        count t "pdu_drops";
        traced t (fun s ->
            Simcore.Tracer.instant s "fault.drop"
              ~args:[ ("vc", Simcore.Tracer.Int fl.fl_vc) ])
      end;
      Simcore.Engine.at t.engine ~time:arrival (fun () ->
          Memory.Buf_pool.give t.tx_pool chunk);
      Simcore.Engine.at t.engine
        ~time:(Simcore.Sim_time.add arrival t.p.Net_params.prop_delay)
        (fun () -> grant_credits t ~vc:fl.fl_vc ~cells:burst_cells)
    | _ ->
      if off = 0 then (
        match fl.fl_fault with
        | Some (Delay_us _) -> count t "pdu_delays"
        | _ -> ());
      Simcore.Engine.at peer.engine ~time:arrival (fun () ->
          rx_burst peer ~vc:fl.fl_vc ~chunk ~chunk_len:len ~pdu_off:off
            ~hdr_len:fl.fl_hdr_len ~total_len:fl.fl_total ~is_last ~tx_crc
            ~cells:burst_cells;
          (* rx_burst consumed the staging buffer synchronously; recycle
             it. *)
          Memory.Buf_pool.give t.tx_pool chunk));
    Simcore.Engine.at t.engine ~time:end_time (fun () ->
        if is_last then
          match fl.fl_fault with
          | Some Duplicate ->
            (* Replay the whole PDU once more: the source frames are still
               referenced (the job is not done), so the wire carries two
               identical copies back to back. *)
            fl.fl_fault <- None;
            fl.fl_crc <- Crc32.init;
            count t "pdu_dups";
            traced t (fun s ->
                Simcore.Tracer.instant s "fault.duplicate"
                  ~args:[ ("vc", Simcore.Tracer.Int fl.fl_vc) ]);
            send_burst t job ~i:0 ~cells_done:0
          | _ ->
            t.tx_active <- false;
            traced t (fun s ->
                Simcore.Tracer.span_end s ~id:fl.fl_span "tx.pdu");
            job.job_done ();
            pump t
        else send_burst t job ~i:(i + 1) ~cells_done:end_cells)
  in
  match Hashtbl.find_opt t.credits fl.fl_vc with
  | Some cs when cs.available < burst_cells ->
    (* Park this VC until the receiver returns enough credits, and hand
       the transmitter to other VCs: a stalled VC must not head-of-line
       block the adapter. *)
    count t "tx_stalls";
    traced t (fun s ->
        Simcore.Tracer.instant s "tx.credit_stall"
          ~args:
            [
              ("vc", Simcore.Tracer.Int fl.fl_vc);
              ("cells_needed", Simcore.Tracer.Int burst_cells);
            ]);
    cs.parked <- Some (burst_cells, fun () -> send_burst t job ~i ~cells_done);
    t.tx_active <- false;
    pump t
  | Some _ | None -> proceed ()

and pump t =
  if not t.tx_active then begin
    match Queue.take_opt t.resumes with
    | Some k ->
      (* A just-unparked burst: the transmitter picks its PDU back up
         mid-flight, with no new tx_setup. *)
      t.tx_active <- true;
      k ()
    | None ->
      let rec next () =
        match Queue.take_opt t.tx_queue with
        | None -> ()
        | Some job -> (
          match Hashtbl.find_opt t.credits job.job_vc with
          | Some cs when cs.parked <> None ->
            (* This VC already has a parked PDU in flight; divert behind
               it so per-VC PDU order holds on the wire. *)
            Queue.add job cs.blocked;
            next ()
          | _ ->
            t.tx_active <- true;
            Simcore.Engine.schedule t.engine ~delay:t.p.Net_params.tx_setup
              (fun () -> send_burst t job ~i:0 ~cells_done:0))
      in
      next ()
  end

let transmit t ~vc ~hdr ~desc ~on_tx_complete =
  (match t.peer with
  | Some _ -> ()
  | None -> failwith "Adapter.transmit: not connected");
  let hdr_len = Bytes.length hdr in
  let total = hdr_len + Memory.Io_desc.total_len desc in
  if total > Aal5.max_pdu then invalid_arg "Adapter.transmit: PDU too large for AAL5";
  (* A credited VC must be able to fit at least one burst in its window,
     or transmission would deadlock. *)
  (match Hashtbl.find_opt t.credits vc with
  | Some cs ->
    let burst_bytes = t.p.Net_params.burst_pages * t.page_size in
    let worst =
      min (Aal5.cells_for_len total)
        (((min burst_bytes total) + Aal5.cell_payload - 1) / Aal5.cell_payload + 1)
    in
    if cs.limit < worst then
      invalid_arg "Adapter.transmit: credit window smaller than one burst"
  | None -> ());
  let fl_hdr = Bytes.copy hdr in
  let fl =
    { fl_vc = vc; fl_hdr; fl_desc = desc;
      fl_iov =
        Memory.Iovec.concat
          [ Memory.Iovec.of_bytes fl_hdr; Memory.Io_desc.to_iovec desc ];
      fl_total = total; fl_hdr_len = hdr_len; fl_crc = Crc32.init; fl_span = 0;
      fl_fault = decide_fault t ~vc }
  in
  (* Advisory busy estimate (ignores credit stalls). *)
  let now = Simcore.Engine.now t.engine in
  let tx_start =
    Simcore.Sim_time.add (Simcore.Sim_time.max now t.tx_busy_until)
      t.p.Net_params.tx_setup
  in
  t.tx_busy_until <-
    Simcore.Sim_time.add tx_start (Net_params.wire_time t.p ~payload_len:total);
  traced t (fun s ->
      fl.fl_span <-
        Simcore.Tracer.span_begin s "tx.pdu"
          ~args:
            [
              ("vc", Simcore.Tracer.Int vc);
              ("bytes", Simcore.Tracer.Int total);
              ("cells", Simcore.Tracer.Int (Aal5.cells_for_len total));
            ]);
  Queue.add { job_vc = vc; job_fl = fl; job_done = on_tx_complete } t.tx_queue;
  pump t

(* {1 Outboard staging} *)

let outboard_read t ~id ~off ~len =
  match Hashtbl.find_opt t.outboard id with
  | None -> invalid_arg "Adapter.outboard_read: unknown buffer"
  | Some data -> Bytes.sub data off len

let outboard_free t ~id =
  if not (Hashtbl.mem t.outboard id) then
    invalid_arg "Adapter.outboard_free: unknown buffer";
  Hashtbl.remove t.outboard id
