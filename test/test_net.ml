(* Tests for the network substrate: CRC-32, AAL5 framing, link timing,
   and the adapter's three RX buffering architectures. *)

let test_crc32_vectors () =
  (* Standard check values for CRC-32/IEEE. *)
  Alcotest.(check int32) "empty" 0l (Net.Crc32.digest Bytes.empty);
  List.iter
    (fun (s, crc) ->
      Alcotest.(check int32) s crc (Net.Crc32.digest (Bytes.of_string s)))
    [
      ("a", 0xE8B7BE43l);
      ("abc", 0x352441C2l);
      ("123456789", 0xCBF43926l);
      ("The quick brown fox jumps over the lazy dog", 0x414FA339l);
    ]

let test_crc32_incremental () =
  let data = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  let oneshot = Net.Crc32.digest data in
  let split = 17 in
  let c = Net.Crc32.update Net.Crc32.init data ~off:0 ~len:split in
  let c = Net.Crc32.update c data ~off:split ~len:(Bytes.length data - split) in
  Alcotest.(check int32) "incremental = one-shot" oneshot (Net.Crc32.finish c)

(* Random (seed CRC, buffer, offset, length).  Lengths 0-7, the empty
   range included, get their own share of cases. *)
let crc_case =
  QCheck.make
    ~print:(fun (seed, s, off, len) ->
      Printf.sprintf "seed=%ld buf=%d bytes off=%d len=%d" seed (String.length s) off
        len)
    QCheck.Gen.(
      let* seed = ui32 and* off = int_bound 17 in
      let* len = frequency [ (1, int_bound 7); (3, int_bound 300) ] in
      let* slack = int_bound 9 in
      let+ s = string_size (return (off + len + slack)) in
      (seed, s, off, len))

let crc32_matches_oracle =
  QCheck.Test.make ~name:"crc32 update equals the byte-at-a-time oracle" ~count:2000
    crc_case (fun (seed, s, off, len) ->
      let b = Bytes.of_string s in
      Net.Crc32.update seed b ~off ~len = Crc32_oracle.update seed b ~off ~len)

(* Ranges that reach outside the buffer, with [len > 0]: the oracle
   raises only once it reads a byte out of range. *)
let crc32_rejects_bad_ranges =
  QCheck.Test.make ~name:"crc32 update rejects out-of-range off/len" ~count:300
    QCheck.(triple (int_bound 40) (int_range (-20) 60) (int_range 1 60))
    (fun (n, off, len) ->
      QCheck.assume (off < 0 || off + len > n);
      let b = Bytes.make n 'x' in
      let raises f =
        match f Net.Crc32.init b ~off ~len with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      raises Net.Crc32.update && raises Crc32_oracle.update)

(* AAL5 folds the CRC over an iovec's slices ([Aal5.crc_iov]); any split
   of the payload, at any offsets into the underlying buffers, must give
   the one-shot CRC. *)
let crc32_iovec_split =
  QCheck.Test.make ~name:"crc32 folded over iovec slices equals one-shot" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 6) (triple (int_bound 11) string (int_bound 11)))
    (fun pieces ->
      let iov =
        Memory.Iovec.concat
          (List.map
             (fun (pre, s, post) ->
               let base = Bytes.make (pre + String.length s + post) '\xEE' in
               Bytes.blit_string s 0 base pre (String.length s);
               Memory.Iovec.of_bytes base ~off:pre ~len:(String.length s))
             pieces)
      in
      let folded =
        Memory.Iovec.fold iov ~init:Net.Crc32.init ~f:(fun c base ~off ~len ->
            Net.Crc32.update c base ~off ~len)
      in
      Net.Crc32.finish folded = Net.Crc32.digest (Memory.Iovec.to_bytes iov))

let test_aal5_math () =
  Alcotest.(check int) "1 byte -> 1 cell" 1 (Net.Aal5.cells_for_len 1);
  Alcotest.(check int) "40 bytes -> 1 cell" 1 (Net.Aal5.cells_for_len 40);
  Alcotest.(check int) "41 bytes -> 2 cells (trailer spill)" 2
    (Net.Aal5.cells_for_len 41);
  Alcotest.(check int) "48 bytes -> 2 cells" 2 (Net.Aal5.cells_for_len 48);
  Alcotest.(check int) "wire bytes" 106 (Net.Aal5.wire_bytes 48);
  Alcotest.(check int) "60KB" ((61448 / 48) + 1) (Net.Aal5.cells_for_len 61440)

let test_aal5_roundtrip () =
  let payload = Bytes.init 1000 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let cells = Net.Aal5.encode payload in
  Alcotest.(check int) "cell count" (Net.Aal5.cells_for_len 1000)
    (List.length cells);
  List.iter
    (fun c -> Alcotest.(check int) "cell payload size" 48 (Bytes.length c))
    cells;
  match Net.Aal5.decode cells with
  | Ok decoded -> Alcotest.(check bytes) "roundtrip" payload decoded
  | Error e -> Alcotest.failf "decode failed: %a" Net.Aal5.pp_error e

let test_aal5_iov_equivalence () =
  (* The view-native cellification must produce bit-identical cells to
     the bytes API, including for payloads scattered across frames. *)
  let payload = Bytes.init 5000 (fun i -> Char.chr ((i * 13) land 0xFF)) in
  let cells_bytes = Net.Aal5.encode payload in
  let cells_iov = Net.Aal5.encode_iov (Memory.Iovec.of_bytes payload) in
  Alcotest.(check int) "same cell count" (List.length cells_bytes)
    (List.length cells_iov);
  List.iter2
    (fun b v ->
      Alcotest.(check bytes) "cell identical" b (Memory.Iovec.to_bytes v))
    cells_bytes cells_iov;
  (match Net.Aal5.decode_iov cells_iov with
  | Ok view -> Alcotest.(check bytes) "view decode" payload (Memory.Iovec.to_bytes view)
  | Error e -> Alcotest.failf "decode_iov failed: %a" Net.Aal5.pp_error e);
  (* Frame-backed gather source: payload split across two frames. *)
  let spec = { Machine.Machine_spec.micron_p166 with Machine.Machine_spec.memory_mb = 1 } in
  let pm = Memory.Phys_mem.create spec in
  let f1 = Memory.Phys_mem.alloc pm and f2 = Memory.Phys_mem.alloc pm in
  Bytes.blit payload 0 (Memory.Frame.data f1) 96 4000;
  Bytes.blit payload 4000 (Memory.Frame.data f2) 0 1000;
  let scattered =
    Memory.Iovec.concat
      [
        Memory.Iovec.of_frame f1 ~off:96 ~len:4000;
        Memory.Iovec.of_frame f2 ~off:0 ~len:1000;
      ]
  in
  List.iter2
    (fun b v ->
      Alcotest.(check bytes) "scattered cell identical" b (Memory.Iovec.to_bytes v))
    cells_bytes
    (Net.Aal5.encode_iov scattered)

let test_aal5_detects_corruption () =
  let payload = Bytes.make 100 'p' in
  let cells = Net.Aal5.encode payload in
  let corrupted =
    List.mapi
      (fun i c ->
        if i = 0 then begin
          let c = Bytes.copy c in
          Bytes.set c 3 'X';
          c
        end
        else c)
      cells
  in
  (match Net.Aal5.decode corrupted with
  | Error `Bad_crc -> ()
  | Ok _ -> Alcotest.fail "corruption not detected"
  | Error e -> Alcotest.failf "unexpected error: %a" Net.Aal5.pp_error e);
  match Net.Aal5.decode [] with
  | Error `Truncated -> ()
  | _ -> Alcotest.fail "empty PDU must be truncated"

let aal5_roundtrip_prop =
  QCheck.Test.make ~name:"aal5 roundtrip, arbitrary payloads" ~count:100
    QCheck.(string_of_size Gen.(1 -- 5000))
    (fun s ->
      let payload = Bytes.of_string s in
      match Net.Aal5.decode (Net.Aal5.encode payload) with
      | Ok decoded -> Bytes.equal payload decoded
      | Error _ -> false)

let test_wire_time () =
  let p = Net.Net_params.oc3 in
  (* One cell at 149.76 Mbps: 53*8/149.76 = 2.831 usec. *)
  let t = Simcore.Sim_time.to_us (Net.Net_params.wire_time p ~payload_len:10) in
  Alcotest.(check (float 0.01)) "one cell" 2.831 t;
  (* OC-12 is 4x faster. *)
  let t12 =
    Simcore.Sim_time.to_us (Net.Net_params.wire_time Net.Net_params.oc12 ~payload_len:10)
  in
  Alcotest.(check (float 0.001)) "oc12 = oc3/4" (t /. 4.) t12

(* {1 Adapter} *)

let spec = { Machine.Machine_spec.micron_p166 with Machine.Machine_spec.memory_mb = 1 }

let adapter_pair () =
  let engine = Simcore.Engine.create () in
  let pm = Memory.Phys_mem.create spec in
  let a = Net.Adapter.create engine Net.Net_params.oc3 ~page_size:4096 ~name:"a" in
  let b = Net.Adapter.create engine Net.Net_params.oc3 ~page_size:4096 ~name:"b" in
  Net.Adapter.connect a b;
  Net.Adapter.set_pool_supply b (fun () -> Some (Memory.Phys_mem.alloc pm));
  (engine, pm, a, b)

let frame_with pm s =
  let f = Memory.Phys_mem.alloc pm in
  Bytes.blit_string s 0 (Memory.Frame.data f) 0 (String.length s);
  f

let test_adapter_early_demux () =
  let engine, pm, a, b = adapter_pair () in
  let src = frame_with pm "PAYLOAD-DATA" in
  let dst = Memory.Phys_mem.alloc pm in
  let hdrbuf = Memory.Phys_mem.alloc pm in
  let got = ref None in
  Net.Adapter.set_rx_mode b ~vc:1 Net.Adapter.Early_demux;
  Net.Adapter.set_rx_complete b (fun r -> got := Some r);
  let posted_desc = Memory.Io_desc.single dst ~off:100 ~len:12 in
  Net.Adapter.post_input b
    {
      Net.Adapter.vc = 1;
      token = 77;
      hdr_desc = Memory.Io_desc.single hdrbuf ~off:0 ~len:4;
      payload_desc = Some posted_desc;
      ready = (fun () -> posted_desc);
    };
  Net.Adapter.transmit a ~vc:1 ~hdr:(Bytes.of_string "HDR!")
    ~desc:(Memory.Io_desc.single src ~off:0 ~len:12)
    ~on_tx_complete:(fun () -> ());
  Simcore.Engine.run engine;
  match !got with
  | Some { Net.Adapter.completion = Net.Adapter.Demuxed { posted; payload_len; overrun };
           crc_ok; vc } ->
    Alcotest.(check int) "vc" 1 vc;
    Alcotest.(check int) "token" 77 posted.Net.Adapter.token;
    Alcotest.(check int) "payload length" 12 payload_len;
    Alcotest.(check bool) "no overrun" false overrun;
    Alcotest.(check bool) "crc ok" true crc_ok;
    Alcotest.(check string) "payload scattered in place" "PAYLOAD-DATA"
      (Bytes.sub_string (Memory.Frame.data dst) 100 12);
    Alcotest.(check string) "header captured" "HDR!"
      (Bytes.sub_string (Memory.Frame.data hdrbuf) 0 4)
  | Some _ -> Alcotest.fail "expected demuxed completion"
  | None -> Alcotest.fail "no completion"

let test_adapter_pooled_fallback () =
  (* Early-demux VC with nothing posted: the PDU lands in pool pages. *)
  let engine, pm, a, b = adapter_pair () in
  let src = frame_with pm "FALLBACK" in
  let got = ref None in
  Net.Adapter.set_rx_mode b ~vc:2 Net.Adapter.Early_demux;
  Net.Adapter.set_rx_complete b (fun r -> got := Some r);
  Net.Adapter.transmit a ~vc:2 ~hdr:(Bytes.of_string "HH")
    ~desc:(Memory.Io_desc.single src ~off:0 ~len:8)
    ~on_tx_complete:(fun () -> ());
  Simcore.Engine.run engine;
  match !got with
  | Some { Net.Adapter.completion = Net.Adapter.Pooled_chain { frames; hdr_len; payload_len };
           crc_ok; _ } ->
    Alcotest.(check bool) "crc" true crc_ok;
    Alcotest.(check int) "hdr len" 2 hdr_len;
    Alcotest.(check int) "payload len" 8 payload_len;
    (match frames with
    | [ f ] ->
      Alcotest.(check string) "header-first layout" "HHFALLBACK"
        (Bytes.sub_string (Memory.Frame.data f) 0 10)
    | _ -> Alcotest.fail "expected one pool page")
  | Some _ -> Alcotest.fail "expected pooled completion"
  | None -> Alcotest.fail "no completion"

let test_adapter_pooled_multi_page () =
  let engine, pm, a, b = adapter_pair () in
  Net.Adapter.set_rx_mode b ~vc:3 Net.Adapter.Pooled;
  let payload_len = 10_000 in
  let payload = Genie.Buf.expected_pattern ~len:payload_len ~seed:5 in
  let frames =
    List.init 3 (fun i ->
        let f = Memory.Phys_mem.alloc pm in
        let n = min 4096 (payload_len - (i * 4096)) in
        Bytes.blit payload (i * 4096) (Memory.Frame.data f) 0 n;
        f)
  in
  let segs =
    List.mapi
      (fun i f ->
        { Memory.Io_desc.frame = f; off = 0; len = min 4096 (payload_len - (i * 4096)) })
      frames
  in
  let got = ref None in
  Net.Adapter.set_rx_complete b (fun r -> got := Some r);
  Net.Adapter.transmit a ~vc:3 ~hdr:(Bytes.of_string "16-byte-header!!")
    ~desc:(Memory.Io_desc.of_segs segs)
    ~on_tx_complete:(fun () -> ());
  Simcore.Engine.run engine;
  match !got with
  | Some { Net.Adapter.completion = Net.Adapter.Pooled_chain { frames; hdr_len; payload_len = pl };
           crc_ok; _ } ->
    Alcotest.(check bool) "crc" true crc_ok;
    Alcotest.(check int) "chain pages" 3 (List.length frames);
    let desc =
      Memory.Io_desc.of_segs
        (List.map (fun f -> { Memory.Io_desc.frame = f; off = 0; len = 4096 }) frames)
    in
    Alcotest.(check bytes) "payload after header" payload
      (Memory.Io_desc.gather desc ~off:hdr_len ~len:pl)
  | Some _ -> Alcotest.fail "expected pooled"
  | None -> Alcotest.fail "no completion"

let test_adapter_outboard () =
  let engine, pm, a, b = adapter_pair () in
  Net.Adapter.set_rx_mode b ~vc:4 Net.Adapter.Outboard;
  let src = frame_with pm "OUTBOARD-STAGED" in
  let got = ref None in
  Net.Adapter.set_rx_complete b (fun r -> got := Some r);
  Net.Adapter.transmit a ~vc:4 ~hdr:(Bytes.of_string "hd")
    ~desc:(Memory.Io_desc.single src ~off:0 ~len:15)
    ~on_tx_complete:(fun () -> ());
  Simcore.Engine.run engine;
  match !got with
  | Some { Net.Adapter.completion = Net.Adapter.Outboard_stored { id; hdr_len; payload_len };
           _ } ->
    Alcotest.(check string) "read staged payload" "OUTBOARD-STAGED"
      (Bytes.to_string (Net.Adapter.outboard_read b ~id ~off:hdr_len ~len:payload_len));
    Net.Adapter.outboard_free b ~id;
    Alcotest.check_raises "freed"
      (Invalid_argument "Adapter.outboard_read: unknown buffer") (fun () ->
        ignore (Net.Adapter.outboard_read b ~id ~off:0 ~len:1))
  | Some _ -> Alcotest.fail "expected outboard"
  | None -> Alcotest.fail "no completion"

let test_adapter_tx_serializes () =
  (* Two PDUs on one adapter: the second must finish after the first. *)
  let engine, pm, a, b = adapter_pair () in
  Net.Adapter.set_rx_mode b ~vc:5 Net.Adapter.Pooled;
  let completions = ref [] in
  Net.Adapter.set_rx_complete b (fun r ->
      match r.Net.Adapter.completion with
      | Net.Adapter.Pooled_chain { frames; hdr_len; _ } ->
        let f = List.hd frames in
        completions :=
          (Bytes.sub_string (Memory.Frame.data f) hdr_len 1,
           Simcore.Sim_time.to_us (Simcore.Engine.now engine))
          :: !completions
      | _ -> ());
  let send tag =
    let src = frame_with pm tag in
    Net.Adapter.transmit a ~vc:5 ~hdr:(Bytes.of_string "h")
      ~desc:(Memory.Io_desc.single src ~off:0 ~len:(String.length tag))
      ~on_tx_complete:(fun () -> ())
  in
  send "1111";
  send "2222";
  Simcore.Engine.run engine;
  match List.rev !completions with
  | [ ("1", t1); ("2", t2) ] ->
    Alcotest.(check bool) "in order, serialized" true (t2 > t1)
  | other -> Alcotest.failf "unexpected completions (%d)" (List.length other)

let test_adapter_overrun_flag () =
  let engine, pm, a, b = adapter_pair () in
  let src = frame_with pm (String.make 100 'x') in
  let dst = Memory.Phys_mem.alloc pm in
  let hdrbuf = Memory.Phys_mem.alloc pm in
  let got = ref None in
  Net.Adapter.set_rx_complete b (fun r -> got := Some r);
  let small = Memory.Io_desc.single dst ~off:0 ~len:10 in
  Net.Adapter.post_input b
    {
      Net.Adapter.vc = 6;
      token = 1;
      hdr_desc = Memory.Io_desc.single hdrbuf ~off:0 ~len:1;
      payload_desc = Some small;
      ready = (fun () -> small);
    };
  Net.Adapter.transmit a ~vc:6 ~hdr:(Bytes.of_string "h")
    ~desc:(Memory.Io_desc.single src ~off:0 ~len:100)
    ~on_tx_complete:(fun () -> ());
  Simcore.Engine.run engine;
  match !got with
  | Some { Net.Adapter.completion = Net.Adapter.Demuxed { overrun; _ }; _ } ->
    Alcotest.(check bool) "overrun flagged" true overrun
  | _ -> Alcotest.fail "expected demuxed completion"

let test_adapter_cancel_posted () =
  let _, pm, _, b = adapter_pair () in
  let dst = Memory.Phys_mem.alloc pm in
  let d = Memory.Io_desc.single dst ~off:0 ~len:8 in
  Net.Adapter.post_input b
    { Net.Adapter.vc = 9; token = 5; hdr_desc = d; payload_desc = Some d;
      ready = (fun () -> d) };
  Alcotest.(check int) "posted" 1 (Net.Adapter.posted_count b ~vc:9);
  Alcotest.(check bool) "cancel hit" true (Net.Adapter.cancel_posted b ~vc:9 ~token:5);
  Alcotest.(check int) "gone" 0 (Net.Adapter.posted_count b ~vc:9);
  Alcotest.(check bool) "cancel miss" false (Net.Adapter.cancel_posted b ~vc:9 ~token:5)

let test_weak_gather_mid_transmission () =
  (* Data is gathered from host frames burst by burst: an overwrite
     mid-transmission corrupts the tail of the PDU (weak integrity
     mechanics at the device level). *)
  let engine, pm, a, b = adapter_pair () in
  Net.Adapter.set_rx_mode b ~vc:7 Net.Adapter.Pooled;
  let len = 10 * 4096 in
  let frames = Memory.Phys_mem.alloc_many pm 10 in
  List.iter (fun (f : Memory.Frame.t) -> Memory.Frame.fill f 'A') frames;
  let desc =
    Memory.Io_desc.of_segs
      (List.map (fun f -> { Memory.Io_desc.frame = f; off = 0; len = 4096 }) frames)
  in
  let got = ref None in
  Net.Adapter.set_rx_complete b (fun r -> got := Some r);
  Net.Adapter.transmit a ~vc:7 ~hdr:Bytes.empty ~desc ~on_tx_complete:(fun () -> ());
  (* Overwrite everything a bit into the transmission: early bursts are
     already on the wire, later ones will pick up the change. *)
  Simcore.Engine.schedule engine ~delay:(Simcore.Sim_time.of_us 700.) (fun () ->
      List.iter (fun (f : Memory.Frame.t) -> Memory.Frame.fill f 'B') frames);
  Simcore.Engine.run engine;
  match !got with
  | Some { Net.Adapter.completion = Net.Adapter.Pooled_chain { frames = rx; _ }; crc_ok; _ } ->
    Alcotest.(check bool) "crc still consistent (gathered = received)" true crc_ok;
    let first = List.hd rx and last = List.nth rx 9 in
    Alcotest.(check char) "head transmitted before overwrite" 'A'
      (Bytes.get (Memory.Frame.data first) 0);
    Alcotest.(check char) "tail transmitted after overwrite" 'B'
      (Bytes.get (Memory.Frame.data last) (len mod 4096 + 4000 - 4000))
  | _ -> Alcotest.fail "expected pooled completion"

let suite =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "crc32 incremental" `Quick test_crc32_incremental;
    QCheck_alcotest.to_alcotest crc32_matches_oracle;
    QCheck_alcotest.to_alcotest crc32_rejects_bad_ranges;
    QCheck_alcotest.to_alcotest crc32_iovec_split;
    Alcotest.test_case "aal5 cell math" `Quick test_aal5_math;
    Alcotest.test_case "aal5 roundtrip" `Quick test_aal5_roundtrip;
    Alcotest.test_case "aal5 corruption detection" `Quick test_aal5_detects_corruption;
    Alcotest.test_case "aal5 iov equals bytes API" `Quick test_aal5_iov_equivalence;
    QCheck_alcotest.to_alcotest aal5_roundtrip_prop;
    Alcotest.test_case "wire time" `Quick test_wire_time;
    Alcotest.test_case "adapter early demux" `Quick test_adapter_early_demux;
    Alcotest.test_case "adapter pooled fallback" `Quick test_adapter_pooled_fallback;
    Alcotest.test_case "adapter pooled multi-page" `Quick test_adapter_pooled_multi_page;
    Alcotest.test_case "adapter outboard" `Quick test_adapter_outboard;
    Alcotest.test_case "adapter tx serializes" `Quick test_adapter_tx_serializes;
    Alcotest.test_case "adapter overrun flag" `Quick test_adapter_overrun_flag;
    Alcotest.test_case "adapter cancel posted" `Quick test_adapter_cancel_posted;
    Alcotest.test_case "mid-transmission overwrite reaches the wire" `Quick
      test_weak_gather_mid_transmission;
  ]
