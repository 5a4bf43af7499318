type completion =
  | Out_complete of { seq : int }
  | In_complete of { token : int; result : Input_path.result }

type t = {
  host : Host.t;
  vc : int;
  mode : Net.Adapter.rx_mode;
  mutable next_token : int;
  mutable pendings : Input_path.pending list;  (* oldest first *)
  unclaimed : Net.Adapter.rx_result Queue.t;
  completions : completion Queue.t;  (* batched completions, oldest first *)
}

type submission =
  | Sub_output of { sem : Semantics.t; buf : Buf.t; seq : int option }
  | Sub_input of { sem : Semantics.t; spec : Input_path.spec }

let host t = t.host
let vc t = t.vc
let pending_inputs t = List.length t.pendings

let alloc_seq t =
  let s = t.next_token in
  t.next_token <- t.next_token + 1;
  s

let take_pending t p = t.pendings <- List.filter (fun q -> q != p) t.pendings

let on_rx t (result : Net.Adapter.rx_result) =
  match result.Net.Adapter.completion with
  | Net.Adapter.Demuxed { posted; _ } -> begin
    match
      List.find_opt
        (fun p -> Input_path.token p = posted.Net.Adapter.token)
        t.pendings
    with
    | Some p ->
      take_pending t p;
      Input_path.handle_completion t.host p result
    | None -> () (* posted input was cancelled under us; drop *)
  end
  | Net.Adapter.Pooled_chain _ | Net.Adapter.Outboard_stored _ -> begin
    match t.pendings with
    | p :: _ ->
      take_pending t p;
      (* If this pending had posted an early-demux descriptor (the PDU
         started arriving before we posted), retire the stale entry. *)
      ignore
        (Net.Adapter.cancel_posted t.host.Host.adapter ~vc:t.vc
           ~token:(Input_path.token p));
      Input_path.handle_completion t.host p result
    | [] -> Queue.add result t.unclaimed
  end

let create host ~vc ~mode =
  let t =
    {
      host;
      vc;
      mode;
      next_token = 0;
      pendings = [];
      unclaimed = Queue.create ();
      completions = Queue.create ();
    }
  in
  Net.Adapter.set_rx_mode host.Host.adapter ~vc mode;
  Host.set_handler host ~vc (on_rx t);
  t

let output t ~sem ~buf ?seq ?(on_complete = fun () -> ()) () =
  let seq = match seq with Some s -> s | None -> alloc_seq t in
  Output_path.output t.host ~vc:t.vc ~sem ~buf ~seq ~on_complete

type handle = { ep : t; p : Input_path.pending }

let token (h : handle) = Input_path.token h.p

let input_with_token t ~token ~sem ~spec ~on_complete =
  match
    Input_path.prepare t.host ~mode:t.mode ~sem ~spec ~vc:t.vc ~token
      ~on_complete
  with
  | exception Input_path.Backpressure -> Error `Again
  | p, posted ->
    t.pendings <- t.pendings @ [ p ];
    (match posted with
    | Some posted -> Net.Adapter.post_input t.host.Host.adapter posted
    | None -> ());
    (* Synchronous input: data may already be waiting (pooled/outboard). *)
    (match Queue.take_opt t.unclaimed with
    | Some result ->
      take_pending t p;
      (match posted with
      | Some _ ->
        ignore (Net.Adapter.cancel_posted t.host.Host.adapter ~vc:t.vc ~token)
      | None -> ());
      Input_path.handle_completion t.host p result
    | None -> ());
    Ok { ep = t; p }

let input t ~sem ~spec ~on_complete =
  input_with_token t ~token:(alloc_seq t) ~sem ~spec ~on_complete

let cancel (h : handle) =
  let t = h.ep in
  if List.memq h.p t.pendings then begin
    take_pending t h.p;
    ignore
      (Net.Adapter.cancel_posted t.host.Host.adapter ~vc:t.vc
         ~token:(Input_path.token h.p));
    Input_path.abandon t.host h.p;
    true
  end
  else false

let drain t = List.iter (fun p -> ignore (cancel { ep = t; p })) t.pendings

(* {1 Batched submission and completion}

   A batch runs its entries through the single-shot output/input paths
   in submission order, so the per-entry charge sequence — and with it
   every simulated metric — is bit-identical to N sequential calls.
   Completions queue on the endpoint for [reap_completions] instead of
   calling back into the caller. *)

type sub_outcome =
  | Out_accepted of Output_path.outcome * int  (* the sequence number used *)
  | In_accepted of handle
  | Rejected of Outcome.pressure

(* The completion depth [ring_cq_overflows] counts against: a completion
   queued while this many are unreaped is one overflow. *)
let cq_depth = 256

let push_completion t c =
  if Queue.length t.completions >= cq_depth then
    Simcore.Tracer.add_counter t.host.Host.scope "ring_cq_overflows";
  Queue.add c t.completions

(* Sequence numbers and tokens are drawn here, before the path call,
   exactly as [output]/[input] draw them — so a batch consumes the
   endpoint's token stream in the same order as N sequential calls, and
   the completion closures capture their identity directly. *)
let submit_one t = function
  | Sub_output { sem; buf; seq } ->
    let seq = match seq with Some s -> s | None -> alloc_seq t in
    (match
       Output_path.output t.host ~vc:t.vc ~sem ~buf ~seq ~on_complete:(fun () ->
           push_completion t (Out_complete { seq }))
     with
    | Ok outcome -> Out_accepted (outcome, seq)
    | Error `Again -> Rejected `Again)
  | Sub_input { sem; spec } ->
    let token = alloc_seq t in
    (match
       input_with_token t ~token ~sem ~spec ~on_complete:(fun r ->
           push_completion t (In_complete { token; result = r }))
     with
    | Ok h -> In_accepted h
    | Error `Again -> Rejected `Again)

let submit_batch t subs =
  let n = Array.length subs in
  let scope = t.host.Host.scope in
  Simcore.Tracer.add_counter scope ~n "ring_submitted";
  let span =
    if Simcore.Tracer.on scope then
      Simcore.Tracer.span_begin scope "ring.submit"
        ~args:
          [
            ("vc", Simcore.Tracer.Int t.vc);
            ("batch", Simcore.Tracer.Int n);
          ]
    else 0
  in
  (* [Array.init] applies its function to 0 .. n-1 in order. *)
  let outcomes = Array.init n (fun i -> submit_one t subs.(i)) in
  Simcore.Tracer.span_end scope ~id:span "ring.submit";
  outcomes

let completions_available t = Queue.length t.completions

let reap_completions t =
  let scope = t.host.Host.scope in
  let n = Queue.length t.completions in
  let cs = List.rev (Queue.fold (fun acc c -> c :: acc) [] t.completions) in
  Queue.clear t.completions;
  if Simcore.Tracer.on scope then
    Simcore.Tracer.complete scope
      ~start:(Simcore.Engine.now t.host.Host.engine)
      ~dur:Simcore.Sim_time.zero
      ~args:[ ("batch", Simcore.Tracer.Int n) ]
      "ring.reap";
  Simcore.Tracer.add_counter scope ~n "ring_reaped";
  cs
