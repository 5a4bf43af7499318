type t = {
  data : Endpoint.t;
  ack : Endpoint.t;
  sem : Semantics.t;
  chunk : int;
  window : int;
  ack_timeout : Simcore.Sim_time.t;
  max_retries : int;
}

let create ?(chunk = 61440) ?(window = 4) ?(ack_timeout_us = 20_000.)
    ?(max_retries = 8) ~data ~ack sem =
  if chunk <= 0 || chunk + Proto.Dgram_header.length > Net.Aal5.max_pdu then
    invalid_arg "Rel_channel.create: bad chunk size";
  if window <= 0 then invalid_arg "Rel_channel.create: window must be positive";
  if max_retries <= 0 then
    invalid_arg "Rel_channel.create: max_retries must be positive";
  if Semantics.system_allocated sem then
    Vm.Vm_error.semantics "Rel_channel requires an application-allocated semantics";
  if Endpoint.host data != Endpoint.host ack then
    invalid_arg "Rel_channel.create: endpoints on different hosts";
  if Endpoint.vc data = Endpoint.vc ack then
    invalid_arg "Rel_channel.create: data and ack VCs must differ";
  { data; ack; sem; chunk; window;
    ack_timeout = Simcore.Sim_time.of_us ack_timeout_us; max_retries }

let nchunks t len = (len + t.chunk - 1) / t.chunk

let chunk_buf t (buf : Buf.t) i =
  let off = i * t.chunk in
  Buf.make buf.Buf.space ~addr:(buf.Buf.addr + off)
    ~len:(min t.chunk (buf.Buf.len - off))

(* Acknowledgements are one-byte datagrams whose header sequence field
   carries the cumulative "next expected chunk" value. *)
let ack_scratch host = Buf.map (Host.new_space host) ~len:1

(* Exponential backoff: the timeout doubles per consecutive barren round,
   capped at 8x the base. *)
let backoff_timeout t ~round =
  let factor = 1 lsl min round 3 in
  Simcore.Sim_time.of_ns (Simcore.Sim_time.to_ns t.ack_timeout * factor)

let send t ~buf ~on_complete =
  let host = Endpoint.host t.data in
  let engine = host.Host.engine in
  let n = nchunks t buf.Buf.len in
  let base = ref 0 in
  let next = ref 0 in
  let retransmissions = ref 0 in
  let retrans_seen = ref 0 in  (* value of [retransmissions] at last progress *)
  let consec_timeouts = ref 0 in
  let timer_generation = ref 0 in
  let finished = ref false in
  let ack_handle = ref None in
  let ack_bufs = Array.init 2 (fun _ -> ack_scratch host) in
  let trace name counter =
    if Simcore.Tracer.on host.Host.scope then
      Simcore.Tracer.instant host.Host.scope name
        ~args:[ ("vc", Simcore.Tracer.Int (Endpoint.vc t.data)) ];
    Simcore.Tracer.add_counter host.Host.scope counter
  in
  let rec fill_window () =
    let blocked = ref false in
    while (not !blocked) && !next < n && !next < !base + t.window do
      let i = !next in
      match Endpoint.output t.data ~sem:t.sem ~buf:(chunk_buf t buf i) ~seq:i ()
      with
      | Ok _ -> incr next
      | Error `Again ->
        (* Backpressure at the sender: leave the window short; the
           retransmit timer retries once memory drains. *)
        blocked := true
    done
  and arm_timer () =
    if not !finished then begin
      incr timer_generation;
      let generation = !timer_generation in
      Simcore.Engine.schedule engine
        ~delay:(backoff_timeout t ~round:!consec_timeouts) (fun () ->
          if (not !finished) && generation = !timer_generation then
            if !consec_timeouts >= t.max_retries then begin
              (* Retransmission cap: terminal give-up. *)
              finished := true;
              incr timer_generation;
              (match !ack_handle with
              | Some h ->
                ignore (Endpoint.cancel h);
                ack_handle := None
              | None -> ());
              trace "rel.gave_up" "rel_gave_ups";
              on_complete (Error (`Gave_up !retransmissions))
            end
            else begin
              (* Timeout: go back to the window base and resend. *)
              incr consec_timeouts;
              retransmissions := !retransmissions + (!next - !base);
              Simcore.Tracer.add_counter host.Host.scope "rel_retransmits";
              next := !base;
              fill_window ();
              arm_timer ()
            end)
    end
  and on_ack (r : Input_path.result) =
    if (not !finished) && Input_path.ok r then begin
      let expected = r.Input_path.seq in
      if expected > !base then begin
        base := expected;
        consec_timeouts := 0;
        if !retransmissions > !retrans_seen then begin
          (* Progress after loss: the ARQ recovered the dropped PDU. *)
          retrans_seen := !retransmissions;
          trace "rel.recovered" "rel_recoveries"
        end;
        if !base >= n then begin
          finished := true;
          incr timer_generation;
          ack_handle := None;
          on_complete (Ok !retransmissions)
        end
        else begin
          arm_timer ();
          fill_window ()
        end
      end
    end;
    if not !finished then post_ack_input ()
  and post_ack_input () =
    match
      Endpoint.input t.ack ~sem:Semantics.copy
        ~spec:(Input_path.App_buffer ack_bufs.(0))
        ~on_complete:on_ack
    with
    | Ok h -> ack_handle := Some h
    | Error `Again -> ack_handle := None (* app-buffer inputs never reject *)
  in
  post_ack_input ();
  ignore ack_bufs;
  fill_window ();
  arm_timer ()

let recv t ?deadline_us ~buf ~on_complete () =
  let host = Endpoint.host t.data in
  let n = nchunks t buf.Buf.len in
  let expected = ref 0 in
  let finished = ref false in
  let data_handle = ref None in
  let ack_buf = ack_scratch host in
  Buf.write ack_buf (Bytes.of_string "A");
  let send_ack () =
    (* A rejected ack is simply a lost ack: go-back-N retransmits. *)
    match Endpoint.output t.ack ~sem:Semantics.copy ~buf:ack_buf ~seq:!expected ()
    with
    | Ok _ | Error `Again -> ()
  in
  let finish ~ok =
    if not !finished then begin
      finished := true;
      data_handle := None;
      on_complete ~ok
    end
  in
  let rec post_expected () =
    if !finished then ()
    else if !expected < n then
      match
        Endpoint.input t.data ~sem:t.sem
          ~spec:(Input_path.App_buffer (chunk_buf t buf !expected))
          ~on_complete:(fun r ->
            data_handle := None;
            if !finished then ()
            else if Input_path.ok r && r.Input_path.seq = !expected then begin
              incr expected;
              send_ack ();
              if !expected = n then finish ~ok:true else post_expected ()
            end
            else begin
              (* Corrupt chunk, or a stale retransmission landed in the
                 buffer; re-ack the current expectation and keep waiting —
                 the real chunk will overwrite it. *)
              send_ack ();
              post_expected ()
            end)
      with
      | Ok h -> data_handle := Some h
      | Error `Again -> data_handle := None (* app-buffer inputs never reject *)
    else finish ~ok:true
  in
  (match deadline_us with
  | None -> ()
  | Some us ->
    Simcore.Engine.schedule host.Host.engine ~delay:(Simcore.Sim_time.of_us us)
      (fun () ->
        if not !finished then begin
          (match !data_handle with
          | Some h -> ignore (Endpoint.cancel h)
          | None -> ());
          if Simcore.Tracer.on host.Host.scope then
            Simcore.Tracer.instant host.Host.scope "rel.deadline_cancel"
              ~args:[ ("vc", Simcore.Tracer.Int (Endpoint.vc t.data)) ];
          Simcore.Tracer.add_counter host.Host.scope "rel_deadline_cancels";
          finish ~ok:false
        end));
  post_expected ()
