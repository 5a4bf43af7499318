(* Laws of the batched endpoint fast path.

   Ring laws: the generation-counted SPSC ring must behave exactly like
   a bounded FIFO queue under arbitrary interleavings — never exceeding
   capacity, never losing or duplicating an entry, surviving generation
   wraparound — while its lazy cached counters keep refreshes far below
   operations.

   Batching laws: [Ops.charge_n] must be indistinguishable from n
   adjacent charges on every simulated metric, and a whole
   [Endpoint.submit_batch]/[reap_completions] round trip must be
   indistinguishable from N sequential [input]/[output] calls — same
   engine timeline, same CPU completion times, same copy/wire counters,
   same delivered bytes.  Batching is a host-side amortization only. *)

module Ring = Genie.Ring
module Sem = Genie.Semantics
module C = Machine.Cost_model

let light = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166

(* --- ring laws ------------------------------------------------------ *)

let ring_model_equivalence =
  QCheck.Test.make ~name:"ring is a bounded FIFO queue (model equivalence)"
    ~count:300
    QCheck.(
      pair (int_range 1 9)
        (list_of_size Gen.(int_range 0 400) (pair bool small_int)))
    (fun (cap, ops) ->
      let r = Ring.create ~capacity:cap ~dummy:(-1) () in
      let q = Queue.create () in
      let capr = Ring.capacity r in
      List.for_all
        (fun (is_push, v) ->
          let step_ok =
            if is_push then begin
              let accepted = Ring.try_push r v in
              let model_accepts = Queue.length q < capr in
              if accepted then Queue.add v q;
              accepted = model_accepts
            end
            else Ring.try_pop r = Queue.take_opt q
          in
          step_ok
          && Ring.length r = Queue.length q
          && Ring.is_empty r = Queue.is_empty q
          && Ring.is_full r = (Queue.length q = capr))
        ops)

let test_capacity_rounding () =
  let r = Ring.create ~capacity:5 ~dummy:(-1) () in
  Alcotest.(check int) "rounded to power of two" 8 (Ring.capacity r);
  for i = 1 to 8 do
    Alcotest.(check bool) "admits to capacity" true (Ring.try_push r i)
  done;
  Alcotest.(check bool) "full at capacity" true (Ring.is_full r);
  Alcotest.(check bool) "rejects past capacity" false (Ring.try_push r 9);
  let out = ref [] in
  ignore (Ring.drain r ~f:(fun v -> out := v :: !out));
  Alcotest.(check (list int))
    "nothing lost or duplicated"
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (List.rev !out)

let test_generation_wraparound () =
  (* Capacity 2 wraps its generation counter every 8 positions; 10k
     pushes cross it thousands of times.  FIFO order and the full/empty
     edges must survive every crossing. *)
  let r = Ring.create ~capacity:2 ~dummy:(-1) () in
  let expect = ref 0 in
  for i = 0 to 9_999 do
    Alcotest.(check bool) "push admitted" true (Ring.try_push r i);
    if i land 1 = 1 then begin
      match (Ring.try_pop r, Ring.try_pop r) with
      | Some a, Some b ->
          Alcotest.(check int) "fifo (first)" !expect a;
          Alcotest.(check int) "fifo (second)" (!expect + 1) b;
          expect := !expect + 2
      | _ -> Alcotest.fail "ring lost entries"
    end
  done;
  Alcotest.(check bool) "crossed wraparound" true (Ring.wraps r > 0);
  Alcotest.(check int) "empty after drain" 0 (Ring.length r);
  Alcotest.(check (option int)) "pop on empty" None (Ring.try_pop r)

let test_drain_snapshots_available () =
  (* A consumer that re-enqueues from inside [drain] must not loop: the
     drained count is snapshotted before the first callback. *)
  let r = Ring.create ~capacity:8 ~dummy:(-1) () in
  for i = 1 to 4 do
    ignore (Ring.try_push r i)
  done;
  let n = Ring.drain r ~f:(fun v -> ignore (Ring.try_push r (v + 10))) in
  Alcotest.(check int) "drained only the snapshot" 4 n;
  Alcotest.(check int) "re-enqueued entries remain" 4 (Ring.length r);
  let out = ref [] in
  ignore (Ring.drain r ~f:(fun v -> out := v :: !out));
  Alcotest.(check (list int)) "fifo order kept" [ 11; 12; 13; 14 ]
    (List.rev !out)

let test_lazy_cached_counters () =
  (* Fill-then-drain: the producer never sees apparent-full and the
     consumer refreshes its cached producer position once per burst, so
     refreshes stay far below operations — the bchan fast path. *)
  let r = Ring.create ~capacity:256 ~dummy:(-1) () in
  for round = 1 to 5 do
    for i = 1 to 200 do
      ignore (Ring.try_push r ((round * 1000) + i))
    done;
    Alcotest.(check int) "burst drained" 200 (Ring.drain r ~f:ignore)
  done;
  Alcotest.(check int) "pushes counted" 1000 (Ring.pushes r);
  Alcotest.(check int) "pops counted" 1000 (Ring.pops r);
  Alcotest.(check bool)
    (Printf.sprintf "refreshes stay lazy (%d <= 10)" (Ring.refreshes r))
    true
    (Ring.refreshes r <= 10)

(* --- charge_n exactness -------------------------------------------- *)

let fresh_host () =
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  let h = w.Genie.World.a in
  Simcore.Tracer.enable h.Genie.Host.tracer;
  h

(* The host's cost samples: every charge event decoded by [Ops.sample]
   and expanded to one (op, bytes, cost) per charged operation. *)
let samples h =
  List.concat_map
    (fun ev ->
      match Genie.Ops.sample ev with
      | Some (op, bytes, cost, n) -> List.init n (fun _ -> (op, bytes, cost))
      | None -> [])
    (Simcore.Tracer.typed_events h.Genie.Host.tracer)

let charge_n_law =
  QCheck.Test.make
    ~name:"charge_n equals n adjacent charges on every simulated metric"
    ~count:60
    QCheck.(triple (int_bound 30) (int_range 1 50_000) (int_bound 9))
    (fun (op_idx, bytes, n) ->
      let op = List.nth C.all_ops (op_idx mod List.length C.all_ops) in
      let h1 = fresh_host () and h2 = fresh_host () in
      Genie.Ops.charge_n h1.Genie.Host.ops op ~unit:(`Bytes bytes) ~n;
      for _ = 1 to n do
        Genie.Ops.charge h2.Genie.Host.ops op ~unit:(`Bytes bytes)
      done;
      let counters h =
        List.map
          (fun k ->
            Simcore.Tracer.counter h.Genie.Host.tracer ~host:h.Genie.Host.name
              k)
          [ "copies"; "copied_bytes"; "wires" ]
      in
      Genie.Ops.completion_time h1.Genie.Host.ops
      = Genie.Ops.completion_time h2.Genie.Host.ops
      && Simcore.Cpu.busy_time h1.Genie.Host.cpu
         = Simcore.Cpu.busy_time h2.Genie.Host.cpu
      && counters h1 = counters h2
      && samples h1 = samples h2)

(* [Ops.sample] inverts exactly the events [charge]/[charge_n] emit; the
   tracer's other complete events (DMA, bursts, reaps, the block device)
   share the payload shape but not the name, and decode to nothing. *)
let sample_law =
  QCheck.Test.make ~name:"Ops.sample decodes charges and only charges"
    ~count:100
    QCheck.(quad (int_bound 100) bool (int_bound 70_000) (int_bound 8))
    (fun (op_idx, by_pages, amount, extra) ->
      let n = extra + 1 in
      let op = List.nth C.all_ops (op_idx mod List.length C.all_ops) in
      let h = fresh_host () in
      let psize = Genie.Host.page_size h in
      let unit, bytes =
        if by_pages then (`Pages (amount mod 16), amount mod 16 * psize)
        else (`Bytes amount, amount)
      in
      let cost = C.cost h.Genie.Host.costs op ~bytes in
      Genie.Ops.charge h.Genie.Host.ops op ~unit;
      Genie.Ops.charge_n h.Genie.Host.ops op ~unit ~n;
      List.iter
        (fun name ->
          Simcore.Tracer.complete h.Genie.Host.scope ~start:Simcore.Sim_time.zero
            ~dur:cost
            ~args:[ ("bytes", Simcore.Tracer.Int bytes); ("n", Simcore.Tracer.Int n) ]
            name)
        [ "input.dma"; "tx.burst"; "ring.reap"; "dev.read"; "dev.write"; "dev.flush" ];
      let completes =
        List.filter
          (fun ev ->
            match ev.Simcore.Tracer.kind with
            | Simcore.Tracer.Complete _ -> true
            | _ -> false)
          (Simcore.Tracer.typed_events h.Genie.Host.tracer)
      in
      List.map Genie.Ops.sample completes
      = [ Some (op, bytes, cost, 1); Some (op, bytes, cost, n) ]
        @ List.init 6 (fun _ -> None))

(* --- batch-vs-sequential equivalence ------------------------------- *)

let modes = [ Net.Adapter.Early_demux; Net.Adapter.Pooled; Net.Adapter.Outboard ]
let sizes = [ 1; 100; 280; 1000; 1666; 2178; 4095; 4096; 4097; 8192 ]

(* Derive a deterministic transfer plan from a seed: per message a
   sender semantics, a receiver semantics and a length. *)
let plan_of ~seed ~k =
  let rng = Simcore.Rng.create ~seed in
  let pick l = List.nth l (Simcore.Rng.int rng ~bound:(List.length l)) in
  let plan = ref [] in
  for _ = 1 to k do
    let send_sem = pick Sem.all in
    let recv_sem = pick Sem.all in
    let len = pick sizes in
    plan := (send_sem, recv_sem, len) :: !plan
  done;
  Array.of_list (List.rev !plan)

(* Run one world over [plan] — batched or sequential — and distil every
   simulated observable into a comparable digest: final engine time,
   per-host CPU completion times, the copy/wire/pressure counters, and
   per-message delivery records including an MD5 of the delivered
   bytes. *)
let run_world ~batched ~mode plan =
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  let ha = w.Genie.World.a and hb = w.Genie.World.b in
  Simcore.Tracer.enable ha.Genie.Host.tracer;
  Simcore.Tracer.enable hb.Genie.Host.tracer;
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode in
  let k = Array.length plan in
  let psize = Genie.Host.page_size ha in
  let space_a = Genie.Host.new_space ha and space_b = Genie.Host.new_space hb in
  let mk_buf ?state space len =
    let r =
      Vm.Address_space.map_region ?state space ~npages:((len + psize - 1) / psize)
    in
    Genie.Buf.make space
      ~addr:(Vm.Address_space.base_addr r ~page_size:psize)
      ~len
  in
  (* Identical allocation order in both regimes: all input specs first,
     then all output buffers, so virtual addresses and frame traffic
     line up exactly. *)
  let specs = ref [] in
  Array.iter
    (fun (_, recv_sem, len) ->
      let spec =
        if Sem.system_allocated recv_sem then
          Genie.Input_path.Sys_alloc { space = space_b; len }
        else Genie.Input_path.App_buffer (mk_buf space_b len)
      in
      specs := spec :: !specs)
    plan;
  let specs = Array.of_list (List.rev !specs) in
  let out_bufs = ref [] in
  Array.iteri
    (fun i (send_sem, _, len) ->
      (* system-allocated output semantics hand over a moved-in region *)
      let state =
        if Sem.system_allocated send_sem then Some Vm.Region.Moved_in else None
      in
      let buf = mk_buf ?state space_a len in
      Genie.Buf.fill_pattern buf ~seed:(100 + i);
      out_bufs := buf :: !out_bufs)
    plan;
  let out_bufs = Array.of_list (List.rev !out_bufs) in
  let results = Array.make k None in
  let out_completions = ref 0 in
  if batched then begin
    let in_subs = ref [] in
    Array.iteri
      (fun i (_, recv_sem, _) ->
        in_subs :=
          Genie.Endpoint.Sub_input { sem = recv_sem; spec = specs.(i) }
          :: !in_subs)
      plan;
    let in_outcomes =
      Genie.Endpoint.submit_batch eb (Array.of_list (List.rev !in_subs))
    in
    let tok_to_idx = Hashtbl.create 8 in
    Array.iteri
      (fun i -> function
        | Genie.Endpoint.In_accepted h ->
            Hashtbl.replace tok_to_idx (Genie.Endpoint.token h) i
        | Genie.Endpoint.Rejected `Again -> ()
        | Genie.Endpoint.Out_accepted _ -> assert false)
      in_outcomes;
    let out_subs = ref [] in
    Array.iteri
      (fun i (send_sem, _, _) ->
        out_subs :=
          Genie.Endpoint.Sub_output
            { sem = send_sem; buf = out_bufs.(i); seq = Some (100 + i) }
          :: !out_subs)
      plan;
    ignore
      (Genie.Endpoint.submit_batch ea (Array.of_list (List.rev !out_subs))
        : Genie.Endpoint.sub_outcome array);
    Genie.World.run w;
    List.iter
      (function
        | Genie.Endpoint.In_complete { token; result } ->
            results.(Hashtbl.find tok_to_idx token) <- Some result
        | Genie.Endpoint.Out_complete _ -> incr out_completions)
      (Genie.Endpoint.reap_completions eb @ Genie.Endpoint.reap_completions ea)
  end
  else begin
    Array.iteri
      (fun i (_, recv_sem, _) ->
        ignore
          (Genie.Endpoint.input eb ~sem:recv_sem ~spec:specs.(i)
             ~on_complete:(fun r -> results.(i) <- Some r)))
      plan;
    Array.iteri
      (fun i (send_sem, _, _) ->
        ignore
          (Genie.Endpoint.output ea ~sem:send_sem ~buf:out_bufs.(i)
             ~seq:(100 + i)
             ~on_complete:(fun () -> incr out_completions)
             ()))
      plan;
    Genie.World.run w
  end;
  let counters h =
    List.map
      (fun key ->
        ( key,
          Simcore.Tracer.counter h.Genie.Host.tracer ~host:h.Genie.Host.name
            key ))
      [ "copies"; "copied_bytes"; "wires"; "sem_fallbacks";
        "backpressure_rejects"; "pool_borrows"; "reclaims" ]
  in
  let deliveries =
    Array.to_list
      (Array.mapi
         (fun i r ->
           match r with
           | None -> Printf.sprintf "#%d: no result" i
           | Some (r : Genie.Input_path.result) ->
               Printf.sprintf "#%d: ok=%b seq=%d payload=%d bytes=%s" i
                 (Genie.Input_path.ok r) r.Genie.Input_path.seq
                 r.Genie.Input_path.payload_len
                 (match r.Genie.Input_path.buf with
                 | None -> "-"
                 | Some b -> Digest.to_hex (Digest.bytes (Genie.Buf.read b))))
         results)
  in
  String.concat "\n"
    ([
       Printf.sprintf "engine_final=%d"
         (Simcore.Engine.now ha.Genie.Host.engine);
       Printf.sprintf "cpu_a=%d" (Genie.Ops.completion_time ha.Genie.Host.ops);
       Printf.sprintf "cpu_b=%d" (Genie.Ops.completion_time hb.Genie.Host.ops);
       Printf.sprintf "out_completions=%d" !out_completions;
     ]
    @ List.map
        (fun (h : Genie.Host.t) ->
          String.concat " "
            (List.map
               (fun (key, n) -> Printf.sprintf "%s.%s=%d" h.Genie.Host.name key n)
               (counters h)))
        [ ha; hb ]
    @ deliveries)

let batch_equivalence =
  QCheck.Test.make
    ~name:"submit_batch/reap equals N sequential calls (sim-identical)"
    ~count:25
    QCheck.(triple (int_bound 2) (int_range 1 6) (int_bound 10_000))
    (fun (mode_idx, k, seed) ->
      let mode = List.nth modes mode_idx in
      let plan = plan_of ~seed ~k in
      let sequential = run_world ~batched:false ~mode plan in
      let batched = run_world ~batched:true ~mode plan in
      if String.equal sequential batched then true
      else
        QCheck.Test.fail_reportf
          "batched run diverged from sequential run@.--- sequential@.%s@.--- \
           batched@.%s"
          sequential batched)

let test_mixed_batch_order () =
  (* Inputs and outputs interleaved in one batch on each side: the
     outcome array must line up with the submission array. *)
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  let ha = w.Genie.World.a and hb = w.Genie.World.b in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let psize = Genie.Host.page_size ha in
  let mk_buf ?state host len =
    let space = Genie.Host.new_space host in
    let r =
      Vm.Address_space.map_region ?state space ~npages:((len + psize - 1) / psize)
    in
    Genie.Buf.make space
      ~addr:(Vm.Address_space.base_addr r ~page_size:psize)
      ~len
  in
  let got = ref [] in
  let in_out =
    Genie.Endpoint.submit_batch eb
      [|
        Genie.Endpoint.Sub_input
          { sem = Sem.emulated_copy; spec = Genie.Input_path.App_buffer (mk_buf hb 512) };
        Genie.Endpoint.Sub_input
          {
            sem = Sem.emulated_move;
            spec =
              Genie.Input_path.Sys_alloc
                { space = Genie.Host.new_space hb; len = 4096 };
          };
      |]
  in
  Array.iter
    (function
      | Genie.Endpoint.In_accepted _ -> ()
      | _ -> Alcotest.fail "input not accepted")
    in_out;
  let b1 = mk_buf ha 512
  and b2 = mk_buf ~state:Vm.Region.Moved_in ha 4096 in
  Genie.Buf.fill_pattern b1 ~seed:7;
  Genie.Buf.fill_pattern b2 ~seed:8;
  let out_out =
    Genie.Endpoint.submit_batch ea
      [|
        Genie.Endpoint.Sub_output { sem = Sem.emulated_copy; buf = b1; seq = None };
        Genie.Endpoint.Sub_output { sem = Sem.emulated_move; buf = b2; seq = None };
      |]
  in
  (match (out_out.(0), out_out.(1)) with
  | Genie.Endpoint.Out_accepted (_, s0), Genie.Endpoint.Out_accepted (_, s1) ->
      Alcotest.(check bool) "endpoint-assigned seqs are consecutive" true
        (s1 = s0 + 1)
  | _ -> Alcotest.fail "output not accepted");
  Genie.World.run w;
  Alcotest.(check int) "two completions waiting on each side" 2
    (Genie.Endpoint.completions_available eb);
  List.iter
    (function
      | Genie.Endpoint.In_complete { result; _ } ->
          Alcotest.(check bool) "delivery ok" true (Genie.Input_path.ok result);
          got := result.Genie.Input_path.payload_len :: !got
      | Genie.Endpoint.Out_complete _ -> ())
    (Genie.Endpoint.reap_completions eb);
  Alcotest.(check (list int)) "both payloads delivered in order" [ 512; 4096 ]
    (List.rev !got);
  Alcotest.(check int) "sender completions reaped" 2
    (List.length (Genie.Endpoint.reap_completions ea));
  Alcotest.(check int) "rings drained" 0
    (Genie.Endpoint.completions_available ea)

(* --- host allocation of the staging path --------------------------- *)

(* Words per message for bursts of [b] 256-byte messages staged the way
   the batched endpoint path stages them: indices through the
   submission ring, one pooled chunk, one [Ops.charge_n], then the
   completion ring. *)
let staging_words_per_msg b =
  let msg_len = 256 in
  let views =
    Array.init b (fun i ->
        Memory.Iovec.of_bytes
          (Bytes.init msg_len (fun j -> Char.chr ((i + j) land 0xFF))))
  in
  let ops =
    Genie.Ops.create
      (Simcore.Cpu.create (Simcore.Engine.create ()))
      (C.create Machine.Machine_spec.micron_p166)
  in
  let pool = Memory.Buf_pool.create () in
  let sq = Ring.create ~dummy:(-1) () and cq = Ring.create ~dummy:(-1) () in
  let burst () =
    for i = 0 to b - 1 do
      ignore (Ring.try_push sq i : bool)
    done;
    let chunk = Memory.Buf_pool.take pool ~len:(b * msg_len) in
    ignore
      (Ring.drain sq ~f:(fun i ->
           Memory.Iovec.blit_to views.(i) ~dst:chunk ~dst_off:(i * msg_len);
           ignore (Ring.try_push cq i : bool))
        : int);
    Genie.Ops.charge_n ops C.Copyin ~unit:(`Bytes msg_len) ~n:b;
    Memory.Buf_pool.give pool chunk;
    ignore (Ring.drain cq ~f:ignore : int)
  in
  (* The first burst's take creates the chunk every later one reuses. *)
  burst ();
  let bursts = 6400 / b in
  Test_util.words_allocated (fun () ->
      for _ = 1 to bursts do
        burst ()
      done)
  /. float_of_int (bursts * b)

(* Batching is a host-side amortization: the per-burst overheads (pool
   take/give, the CPU charge, drain setup) are paid once per batch, so a
   batch of 64 must cost at most half the words per message of a batch
   of 1. *)
let test_batching_amortises_staging () =
  let b1 = staging_words_per_msg 1 and b64 = staging_words_per_msg 64 in
  if b1 > 64. then Alcotest.failf "batch 1 stages %.1f words/msg (> 64)" b1;
  if b64 > 23.8 then Alcotest.failf "batch 64 stages %.2f words/msg (> 23.8)" b64;
  if b64 > b1 /. 2. then
    Alcotest.failf "batch 64 stages %.2f words/msg, not half of batch 1's %.1f" b64 b1

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ ring_model_equivalence; charge_n_law; sample_law; batch_equivalence ]
  @ [
      Alcotest.test_case "capacity rounds up, never exceeded" `Quick
        test_capacity_rounding;
      Alcotest.test_case "generation-counter wraparound keeps FIFO" `Quick
        test_generation_wraparound;
      Alcotest.test_case "drain snapshots the available count" `Quick
        test_drain_snapshots_available;
      Alcotest.test_case "cached counters refresh lazily" `Quick
        test_lazy_cached_counters;
      Alcotest.test_case "mixed batch: outcomes line up, completions reap"
        `Quick test_mixed_batch_order;
      Alcotest.test_case "batching amortises staging words" `Quick
        test_batching_amortises_staging;
    ]
