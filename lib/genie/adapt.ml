module T = Simcore.Tracer
module C = Machine.Cost_model

type config = {
  epoch_datagrams : int;
  window_epochs : int;
  dwell_epochs : int;
  candidates : Semantics.t list;
}

let default_config =
  {
    epoch_datagrams = 16;
    window_epochs = 4;
    dwell_epochs = 3;
    candidates = Semantics.all;
  }

(* Hysteresis constants: see [consider_migration]. *)
let switch_margin = 0.05
let switch_cost_us = 50.

(* Evidence counters sampled per epoch, in probe order. *)
let evidence_names =
  [
    "cow_breaks";
    "copies";
    "copied_bytes";
    "pool_recycles";
    "tx_stalls";
    "sem_fallbacks";
    "backpressure_rejects";
  ]

let i_cow = 0
let i_sem_fallbacks = 5
let i_backpressure = 6
let n_evidence = List.length evidence_names

type epoch = { e_dgrams : int; e_bytes : int; e_deltas : int array }

type t = {
  config : config;
  host : Host.t;
  scheme : Stage_cost.scheme;
  probe : T.probe;
  mutable sem : Semantics.t;
  window : epoch array;  (** circular; [filled] entries are valid *)
  mutable widx : int;
  mutable filled : int;
  mutable cur_dgrams : int;
  mutable cur_bytes : int;
  mutable n_epochs : int;
  mutable epochs_on_current : int;
  mutable n_migrations : int;
  mutable last_migration : int;
}

let create ?(config = default_config) ~host ~scheme ~sem () =
  if config.epoch_datagrams <= 0 then invalid_arg "Adapt: epoch_datagrams";
  if config.window_epochs <= 0 then invalid_arg "Adapt: window_epochs";
  if config.dwell_epochs <= 0 then invalid_arg "Adapt: dwell_epochs";
  if config.candidates = [] then invalid_arg "Adapt: no candidates";
  T.enable_counters host.Host.tracer;
  let empty = { e_dgrams = 0; e_bytes = 0; e_deltas = [||] } in
  {
    config;
    host;
    scheme;
    probe = T.probe host.Host.tracer ~host:host.Host.name evidence_names;
    sem;
    window = Array.make config.window_epochs empty;
    widx = 0;
    filled = 0;
    cur_dgrams = 0;
    cur_bytes = 0;
    n_epochs = 0;
    epochs_on_current = 0;
    n_migrations = 0;
    last_migration = 0;
  }

let semantics t = t.sem
let epochs t = t.n_epochs
let migrations t = t.n_migrations
let last_migration_epoch t = t.last_migration

let migration_cap config ~epochs = (epochs / config.dwell_epochs) + 1

(* {1 Scoring} *)

type window_stats = {
  w_dgrams : int;
  mean_len : int;
  rates : float array;  (** per-datagram evidence rates, probe order *)
}

let window_stats t =
  let dgrams = ref 0 and bytes = ref 0 in
  let sums = Array.make n_evidence 0 in
  for k = 0 to t.filled - 1 do
    let e = t.window.(k) in
    dgrams := !dgrams + e.e_dgrams;
    bytes := !bytes + e.e_bytes;
    Array.iteri (fun i d -> sums.(i) <- sums.(i) + d) e.e_deltas
  done;
  let d = max 1 !dgrams in
  {
    w_dgrams = !dgrams;
    mean_len = max 1 (!bytes / d);
    rates = Array.map (fun s -> float_of_int s /. float_of_int d) sums;
  }

(* Mirror [Output_path.effective_semantics]: a candidate is scored as
   what the host's length thresholds would actually run it as. *)
let converted (t : t) sem ~len =
  let th = t.host.Host.thresholds in
  if
    Semantics.equal sem Semantics.emulated_copy
    && len < th.Thresholds.copy_out_emulated_copy
  then Semantics.copy
  else if
    Semantics.equal sem Semantics.emulated_share
    && len < th.Thresholds.copy_out_emulated_share
  then Semantics.copy
  else sem

let stage_us t sem ~len =
  let costs = t.host.Host.costs in
  Stage_cost.sender_prepare costs sem ~len
  +. Stage_cost.receiver_stage costs t.scheme sem ~len

let score_with t stats cand =
  let len = stats.mean_len in
  let eff = converted t cand ~len in
  let s = stage_us t eff ~len in
  (* Pressure fallback evidence: the degradation ladder is already
     turning emulated copy into plain copy this often — score the
     candidate as the blend it would actually run as. *)
  let fb = min 1. stats.rates.(i_sem_fallbacks) in
  let s =
    if fb > 0. && Semantics.equal eff Semantics.emulated_copy then
      ((1. -. fb) *. s) +. (fb *. stage_us t Semantics.copy ~len)
    else s
  in
  (* Backpressure evidence: `Again rejections hit the path that must
     allocate system-buffer frames up front (plain copy); in-place
     candidates are admitted regardless. *)
  let rj = min 1. stats.rates.(i_backpressure) in
  let s = if not (Semantics.in_place eff) then s *. (1. +. rj) else s in
  (* Buffer-reuse evidence: observed COW breaks predict one page copy
     per break for candidates that arm TCOW on application pages. *)
  let cw = stats.rates.(i_cow) in
  if cw > 0. && Semantics.equal eff Semantics.emulated_copy then
    let page = Host.page_size t.host in
    s
    +. cw
       *. Simcore.Sim_time.to_us
            (C.cost t.host.Host.costs C.Copyin ~bytes:page)
  else s

let score t cand =
  if t.filled < t.config.window_epochs then None
  else Some (score_with t (window_stats t) cand)

(* {1 Epoch close and migration} *)

let consider_migration t =
  let stats = window_stats t in
  if stats.w_dgrams > 0 then begin
    let cur_score = score_with t stats t.sem in
    let best_sem, best_score =
      List.fold_left
        (fun ((_, bs) as best) cand ->
          let s = score_with t stats cand in
          if s < bs then (cand, s) else best)
        (t.sem, cur_score) t.config.candidates
    in
    (* Hysteresis: dwell first, then require the improvement to clear a
       relative margin plus the switch cost amortized over one dwell. *)
    let amortized =
      switch_cost_us
      /. float_of_int (t.config.dwell_epochs * t.config.epoch_datagrams)
    in
    if
      (not (Semantics.equal best_sem t.sem))
      && t.epochs_on_current >= t.config.dwell_epochs
      && cur_score -. best_score > (switch_margin *. cur_score) +. amortized
    then begin
      if T.on t.host.Host.scope then
        T.instant t.host.Host.scope "adapt.migrate"
          ~args:
            [
              ("from", T.Str (Semantics.name t.sem));
              ("to", T.Str (Semantics.name best_sem));
              ("epoch", T.Int t.n_epochs);
            ];
      T.add_counter t.host.Host.scope "adapt_migrations";
      t.sem <- best_sem;
      t.epochs_on_current <- 0;
      t.n_migrations <- t.n_migrations + 1;
      t.last_migration <- t.n_epochs
    end
  end

let close_epoch t =
  let deltas = T.probe_delta t.probe in
  t.window.(t.widx) <-
    { e_dgrams = t.cur_dgrams; e_bytes = t.cur_bytes; e_deltas = deltas };
  t.widx <- (t.widx + 1) mod t.config.window_epochs;
  if t.filled < t.config.window_epochs then t.filled <- t.filled + 1;
  t.cur_dgrams <- 0;
  t.cur_bytes <- 0;
  t.n_epochs <- t.n_epochs + 1;
  t.epochs_on_current <- t.epochs_on_current + 1;
  T.add_counter t.host.Host.scope "adapt_epochs";
  if t.filled >= t.config.window_epochs then consider_migration t

let note_datagram t ~len =
  t.cur_dgrams <- t.cur_dgrams + 1;
  t.cur_bytes <- t.cur_bytes + len;
  if t.cur_dgrams >= t.config.epoch_datagrams then close_epoch t
