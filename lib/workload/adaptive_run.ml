type phase = { len : int; rounds : int }

type config = { scheme : Genie.Stage_cost.scheme; phases : phase list }

(* Unmeasured leading rounds. *)
let warmup = 4

let params = Net.Net_params.oc3
let spec = Machine.Machine_spec.micron_p166

(* Application-buffer byte offset within its page: unaligned only for
   [Pooled_unaligned]. *)
let recv_offset = function
  | Genie.Stage_cost.Pooled_unaligned -> 24
  | Genie.Stage_cost.Early_demux | Genie.Stage_cost.Pooled_aligned -> 0

type outcome = {
  mean_rtt_us : float;
  total_us : float;
  rounds : int;
  migrations : int;
  epochs : int;
  final_sem : Genie.Semantics.t;
  last_migration_epoch : int;
  history : (int * string) list;
}

let rx_mode = function
  | Genie.Stage_cost.Early_demux -> Net.Adapter.Early_demux
  | Genie.Stage_cost.Pooled_aligned | Genie.Stage_cost.Pooled_unaligned ->
    Net.Adapter.Pooled

(* The per-round length schedule, derived statically from the config so
   each host can follow it without sharing mutable state. *)
let round_lens cfg =
  Array.concat
    (List.map (fun (p : phase) -> Array.make p.rounds p.len) cfg.phases)

(* Per-host application buffers, one (send, recv) pair per datagram
   length, created on first use. *)
type app_bufs = {
  space : Vm.Address_space.t;
  offset : int;
  by_len : (int, Genie.Buf.t * Genie.Buf.t) Hashtbl.t;
}

let app_pair ab len =
  match Hashtbl.find_opt ab.by_len len with
  | Some pair -> pair
  | None ->
    let make () = Genie.Buf.map ~offset:ab.offset ab.space ~len in
    let send = make () and recv = make () in
    Genie.Buf.fill_pattern send ~seed:7;
    let pair = (send, recv) in
    Hashtbl.add ab.by_len len pair;
    pair

(* The per-round policy: [choose] picks the semantics for the next round
   and [note] observes its completion — this is the only difference
   between a static and an adaptive run.  Built from host [a] once the
   world exists, since the adaptive controller samples its counters. *)
type policy = {
  choose : unit -> Genie.Semantics.t;
  note : len:int -> unit;
  controller : Genie.Adapt.t option;
}

let run_rounds cfg ~make_policy =
  let lens = round_lens cfg in
  let total = Array.length lens in
  if total = 0 then invalid_arg "Adaptive_run: empty schedule";
  if warmup >= total then invalid_arg "Adaptive_run: warmup >= rounds";
  let world =
    Genie.World.create ~params ~spec_a:spec ~spec_b:spec
      ~thresholds:Genie.Thresholds.no_conversion ()
  in
  let a_host = world.Genie.World.a and b_host = world.Genie.World.b in
  let ea, eb =
    Genie.World.endpoint_pair world ~vc:5 ~mode:(rx_mode cfg.scheme)
  in
  let offset = recv_offset cfg.scheme in
  let a_bufs =
    { space = Genie.Host.new_space a_host; offset; by_len = Hashtbl.create 4 }
  and b_bufs =
    { space = Genie.Host.new_space b_host; offset; by_len = Hashtbl.create 4 }
  in
  let policy = make_policy a_host in
  let choose = policy.choose and note = policy.note in
  (* A moved-in buffer circulating at [a] for system-allocated rounds:
     each system round sends the buffer the previous echo produced. *)
  let a_moved = ref None in
  let rtt_us = ref 0. and rtt_n = ref 0 in
  let meas_start = ref 0. in
  let round = ref 0 in
  let t_send = ref 0. in
  let now_a () = Genie.Host.now_us a_host in
  let rec start_round () =
    if !round < total then begin
      incr round;
      if !round = warmup + 1 then meas_start := now_a ();
      let len = lens.(!round - 1) in
      let sem = choose () in
      let out_buf =
        if Genie.Semantics.system_allocated sem then begin
          let buf =
            match !a_moved with
            | Some b when b.Genie.Buf.len = len -> b
            | _ -> Genie.Buf.map ~state:Vm.Region.Moved_in a_bufs.space ~len
          in
          a_moved := None;
          buf
        end
        else fst (app_pair a_bufs len)
      in
      t_send := now_a ();
      (match Genie.Endpoint.output ea ~sem ~buf:out_buf () with
      | Ok _ -> ()
      | Error `Again -> failwith "Adaptive_run: output rejected");
      (* Prepost the echo input: its prepare work overlaps the outbound
         transfer, off the critical path, as in the paper's breakdown. *)
      let spec =
        if Genie.Semantics.system_allocated sem then
          Genie.Input_path.Sys_alloc { space = a_bufs.space; len }
        else Genie.Input_path.App_buffer (snd (app_pair a_bufs len))
      in
      match Genie.Endpoint.input ea ~sem ~spec ~on_complete:on_a_recv with
      | Ok _ -> ()
      | Error `Again -> failwith "Adaptive_run: echo input rejected"
    end
  and on_a_recv (r : Genie.Input_path.result) =
    if not (Genie.Input_path.ok r) then failwith "Adaptive_run: corrupt echo";
    if !round > warmup then begin
      rtt_us := !rtt_us +. (now_a () -. !t_send);
      incr rtt_n
    end;
    (match r.Genie.Input_path.buf with
    | Some buf when buf.Genie.Buf.space == a_bufs.space ->
      (* A system-allocated echo produced a fresh moved-in buffer. *)
      if
        Vm.Address_space.region_of_addr buf.Genie.Buf.space
          ~vaddr:buf.Genie.Buf.addr
        |> fun rg -> rg.Vm.Region.state = Vm.Region.Moved_in
      then a_moved := Some buf
    | _ -> ());
    note ~len:lens.(!round - 1);
    start_round ()
  in
  (* Host [b]: a fixed plain-copy reflector.  It follows the same static
     schedule for its posted input lengths; its costs are identical
     across candidates and cancel out of every comparison. *)
  let b_round = ref 0 in
  let rec post_b_input () =
    incr b_round;
    if !b_round <= total then begin
      let len = lens.(!b_round - 1) in
      let spec = Genie.Input_path.App_buffer (snd (app_pair b_bufs len)) in
      match
        Genie.Endpoint.input eb ~sem:Genie.Semantics.copy ~spec
          ~on_complete:on_b_recv
      with
      | Ok _ -> ()
      | Error `Again -> failwith "Adaptive_run: forward input rejected"
    end
  and on_b_recv (r : Genie.Input_path.result) =
    if not (Genie.Input_path.ok r) then failwith "Adaptive_run: corrupt forward";
    let echo =
      match r.Genie.Input_path.buf with Some b -> b | None -> assert false
    in
    (match Genie.Endpoint.output eb ~sem:Genie.Semantics.copy ~buf:echo () with
    | Ok _ -> ()
    | Error `Again -> failwith "Adaptive_run: echo rejected");
    post_b_input ()
  in
  post_b_input ();
  start_round ();
  Genie.World.run world;
  let migrations, epochs, last_migration_epoch =
    match policy.controller with
    | Some c ->
      ( Genie.Adapt.migrations c,
        Genie.Adapt.epochs c,
        Genie.Adapt.last_migration_epoch c )
    | None -> (0, 0, 0)
  in
  {
    mean_rtt_us = (if !rtt_n = 0 then 0. else !rtt_us /. float_of_int !rtt_n);
    total_us = now_a () -. !meas_start;
    rounds = !rtt_n;
    migrations;
    epochs;
    final_sem = choose ();
    last_migration_epoch;
    history = [];
  }

(* The schedule pinned to [sem]; [migrations]/[epochs] are 0. *)
let run_static (cfg : config) ~sem =
  run_rounds cfg ~make_policy:(fun _host ->
      { choose = (fun () -> sem); note = (fun ~len:_ -> ()); controller = None })

let run_adaptive ?adapt cfg ~start =
  let history = ref [] in
  let outcome =
    run_rounds cfg ~make_policy:(fun host ->
        let c =
          Genie.Adapt.create ?config:adapt ~host ~scheme:cfg.scheme ~sem:start
            ()
        in
        let note ~len =
          let before = Genie.Adapt.migrations c in
          Genie.Adapt.note_datagram c ~len;
          if Genie.Adapt.migrations c > before then
            history :=
              ( Genie.Adapt.last_migration_epoch c,
                Genie.Semantics.name (Genie.Adapt.semantics c) )
              :: !history
        in
        {
          choose = (fun () -> Genie.Adapt.semantics c);
          note;
          controller = Some c;
        })
  in
  { outcome with history = List.rev !history }

(* {1 Canonical regimes} *)

type regime = {
  r_name : string;
  r_config : config;
  r_candidates : Genie.Semantics.t list;
  r_adapt : Genie.Adapt.config;
}

(* Controller parameters for single-regime runs: 16-datagram epochs, a
   4-epoch window and 3-epoch dwell over ~26 epochs. *)
let steady_adapt candidates =
  { Genie.Adapt.default_config with candidates }

(* Mixed runs must re-migrate within each phase block: shorter epochs,
   window and dwell, so the controller trails a phase boundary by only
   a handful of datagrams. *)
let nimble_adapt candidates =
  { Genie.Adapt.epoch_datagrams = 4; window_epochs = 2; dwell_epochs = 2; candidates }

let strong_corners =
  Genie.Semantics.
    [ copy; emulated_copy; move; emulated_move ]

(* The pair the paper's offline length thresholds arbitrate between
   (Section 6): a strong-integrity, application-allocated service can
   run as plain copy or as emulated copy, and the winner crosses over
   with datagram size. *)
let conversion_pair = Genie.Semantics.[ copy; emulated_copy ]

let system_corners =
  Genie.Semantics.[ move; emulated_move; weak_move; emulated_weak_move ]

let single ~name ~scheme ~len ~candidates ~adapt =
  {
    r_name = name;
    r_config = { scheme; phases = [ { len; rounds = 416 } ] };
    r_candidates = candidates;
    r_adapt = adapt candidates;
  }

let regimes =
  [
    single ~name:"short" ~scheme:Genie.Stage_cost.Early_demux ~len:192
      ~candidates:strong_corners ~adapt:steady_adapt;
    single ~name:"half_page" ~scheme:Genie.Stage_cost.Early_demux ~len:2048
      ~candidates:strong_corners ~adapt:steady_adapt;
    single ~name:"large" ~scheme:Genie.Stage_cost.Early_demux ~len:61440
      ~candidates:Genie.Semantics.all ~adapt:steady_adapt;
    single ~name:"pooled_large" ~scheme:Genie.Stage_cost.Pooled_aligned
      ~len:61440 ~candidates:system_corners ~adapt:steady_adapt;
  ]

(* Short phases are weighted heavily: plain copy's short-datagram edge
   over emulated copy is ~100 us/round while emulated copy's
   large-datagram edge is ~2 ms/round, so a balanced block would let
   static emulated copy win outright and there would be nothing for an
   online controller to exploit.  288/48 makes both statics lose to
   phase-following by a clear margin. *)
let mixed_regime =
  let block = [ { len = 192; rounds = 288 }; { len = 61440; rounds = 48 } ] in
  let phases = List.concat (List.init 4 (fun _ -> block)) in
  {
    r_name = "mixed";
    r_config = { scheme = Genie.Stage_cost.Early_demux; phases };
    r_candidates = conversion_pair;
    r_adapt = nimble_adapt conversion_pair;
  }

let find_regime name =
  List.find_opt (fun r -> r.r_name = name) (mixed_regime :: regimes)

type convergence = {
  c_regime : string;
  c_static_us : (string * float) list;
  c_winner : string;
  c_start : string;
  c_adaptive_us : float;
  c_final : string;
  c_epochs : int;
  c_migrations : int;
  c_last_migration_epoch : int;
  c_settled : bool;
}

let converge ~start_index regime =
  let cfg = regime.r_config in
  let statics =
    List.map
      (fun sem ->
        (Genie.Semantics.name sem, (run_static cfg ~sem).mean_rtt_us))
      regime.r_candidates
  in
  let winner, _ =
    List.fold_left
      (fun ((_, bu) as best) ((_, u) as cand) ->
        if u < bu then cand else best)
      (List.hd statics) (List.tl statics)
  in
  let losers =
    List.filter
      (fun s -> Genie.Semantics.name s <> winner)
      regime.r_candidates
  in
  let start = List.nth losers (start_index mod List.length losers) in
  let out = run_adaptive ~adapt:regime.r_adapt cfg ~start in
  let settled =
    Genie.Semantics.name out.final_sem = winner
    && out.last_migration_epoch * 2 <= out.epochs
  in
  {
    c_regime = regime.r_name;
    c_static_us = statics;
    c_winner = winner;
    c_start = Genie.Semantics.name start;
    c_adaptive_us = out.mean_rtt_us;
    c_final = Genie.Semantics.name out.final_sem;
    c_epochs = out.epochs;
    c_migrations = out.migrations;
    c_last_migration_epoch = out.last_migration_epoch;
    c_settled = settled;
  }
