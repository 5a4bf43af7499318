(* Ablation benchmarks for the design choices the paper calls out:
   TCOW (Section 5.1), input alignment (Section 5.2), input-disabled
   pageout vs wiring (Section 3.2), region hiding (Section 4), and the
   copy-conversion thresholds (Section 6). *)

let header title = Printf.printf "\n--- %s ---\n" title

module R = Stats.Bench_result

(* TCOW: output 15 pages with emulated copy, overwrite the buffer right
   after the output call returns, and check what the receiver saw and
   how many pages were physically copied. *)
let tcow c =
  header "TCOW vs overwriting applications (Section 5.1)";
  let run_with sem =
    let w = Genie.World.create () in
    let ea, eb = Genie.World.endpoint_pair w ~vc:3 ~mode:Net.Adapter.Early_demux in
    let psize = Genie.Host.page_size w.Genie.World.a in
    let len = 15 * psize in
    let buf = Genie.Buf.map (Genie.Host.new_space w.Genie.World.a) ~len in
    Genie.Buf.fill_pattern buf ~seed:1;
    let rbuf = Genie.Buf.map (Genie.Host.new_space w.Genie.World.b) ~len in
    let got = ref Bytes.empty in
    (match
       Genie.Endpoint.input eb ~sem ~spec:(Genie.Input_path.App_buffer rbuf)
         ~on_complete:(fun r ->
           ignore r;
           got := Genie.Buf.read rbuf)
     with
    | Ok _ -> ()
    | Error `Again -> failwith "tcow ablation: input rejected");
    (match Genie.Endpoint.output ea ~sem ~buf () with
    | Ok _ -> ()
    | Error `Again -> failwith "tcow ablation: output rejected");
    (* Immediately after the call returns, scribble over the buffer. *)
    Genie.Buf.write buf (Bytes.make len 'X');
    Genie.World.run w;
    let intact = Bytes.equal !got (Genie.Buf.expected_pattern ~len ~seed:1) in
    (intact, len / psize)
  in
  let intact_tcow, pages = run_with Genie.Semantics.emulated_copy in
  let intact_share, _ = run_with Genie.Semantics.emulated_share in
  R.scalar c ~name:"ablation.tcow.emulated_copy_intact" ~unit_:"bool"
    ~better:R.Neutral
    (if intact_tcow then 1. else 0.);
  R.scalar c ~name:"ablation.tcow.emulated_share_intact" ~unit_:"bool"
    ~better:R.Neutral
    (if intact_share then 1. else 0.);
  R.scalar c ~name:"ablation.tcow.pages_lazily_copied" ~unit_:"pages"
    ~better:R.Neutral (float_of_int pages);
  Printf.printf
    "emulated copy  (TCOW):   receiver got pre-overwrite data: %b (%d pages \
     copied lazily, only because the app wrote during output)\n"
    intact_tcow pages;
  Printf.printf
    "emulated share (no TCOW): receiver got pre-overwrite data: %b (weak \
     integrity: the overwrite reached the wire)\n"
    intact_share;
  (* Cost comparison: TCOW arming vs a conventional region-level COW vs
     the busy-marking scheme, per the cost model. *)
  let costs = Machine.Cost_model.create Machine.Machine_spec.micron_p166 in
  let us op bytes = Simcore.Sim_time.to_us (Machine.Cost_model.cost costs op ~bytes) in
  let b = 61440 in
  Printf.printf "arming cost for a 60 KB output (usec):\n";
  Printf.printf "  TCOW (page-level, transient):    %.1f (read-only pages)\n"
    (us Machine.Cost_model.Read_only b);
  Printf.printf
    "  conventional COW (region-level):  %.1f (read-only + shadow region \
     manipulation)\n"
    (us Machine.Cost_model.Read_only b
    +. us Machine.Cost_model.Region_create 0
    +. us Machine.Cost_model.Region_map b);
  Printf.printf
    "  busy-marking:                     %.1f (read-only), but a writing \
     application stalls until output completes (up to the full wire time, \
     %.0f usec for 60 KB)\n"
    (us Machine.Cost_model.Read_only b)
    (Simcore.Sim_time.to_us (Net.Net_params.wire_time Net.Net_params.oc3 ~payload_len:b))

(* Input alignment: emulated copy with an application buffer at a large
   page offset, with system input alignment enabled vs disabled. *)
let alignment c =
  header "Input alignment on/off (Section 5.2)";
  let run ~align =
    let cfg =
      {
        (Workload.Latency_probe.default ~sem:Genie.Semantics.emulated_copy
           ~len:61440)
        with
        Workload.Latency_probe.recv_offset = 2048;
        spec = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166;
        align_input = align;
      }
    in
    (Workload.Latency_probe.run cfg).Workload.Latency_probe.one_way_us
  in
  let on = run ~align:true and off = run ~align:false in
  R.scalar c ~name:"ablation.alignment.on_us" ~unit_:"us" on;
  R.scalar c ~name:"ablation.alignment.off_us" ~unit_:"us" off;
  R.scalar c ~name:"ablation.alignment.saving_us" ~unit_:"us" ~better:R.Higher
    (off -. on);
  Printf.printf
    "emulated copy, 60 KB, buffer at page offset 2048:\n\
    \  system input alignment ON:  %.0f usec (pages swapped)\n\
    \  system input alignment OFF: %.0f usec (copyout at the receiver)\n\
    \  alignment saves %.0f usec (%.0f%%)\n"
    on off (off -. on)
    (100. *. (off -. on) /. off)

(* Input-disabled pageout: the share vs emulated-share gap is exactly the
   wiring cost that input-disabled pageout eliminates. *)
let wiring c =
  header "Input-disabled pageout vs wiring (Section 3.2)";
  let probe sem len =
    let cfg =
      {
        (Workload.Latency_probe.default ~sem ~len) with
        Workload.Latency_probe.spec =
          Workload.Experiments.light_spec Machine.Machine_spec.micron_p166;
      }
    in
    (Workload.Latency_probe.run cfg).Workload.Latency_probe.one_way_us
  in
  let len = 4096 in
  let share = probe Genie.Semantics.share len in
  let emshare = probe Genie.Semantics.emulated_share len in
  R.scalar c ~name:"ablation.wiring.share_us" ~unit_:"us" share;
  R.scalar c ~name:"ablation.wiring.emulated_share_us" ~unit_:"us" emshare;
  R.scalar c ~name:"ablation.wiring.overhead_avoided_us" ~unit_:"us"
    ~better:R.Neutral (share -. emshare);
  Printf.printf
    "one-page datagram: share %.0f usec vs emulated share %.0f usec\n\
     wiring + unwiring overhead avoided: %.0f usec (paper: about %.0f usec \
     for the first page)\n"
    share emshare (share -. emshare)
    Workload.Paper_data.wire_and_unwire_first_page_us

(* Region hiding: emulated move avoids region removal and creation, and
   avoids zeroing for short datagrams. *)
let region_hiding c =
  header "Region hiding vs region removal (Section 4)";
  let probe sem len =
    let cfg =
      {
        (Workload.Latency_probe.default ~sem ~len) with
        Workload.Latency_probe.spec =
          Workload.Experiments.light_spec Machine.Machine_spec.micron_p166;
      }
    in
    (Workload.Latency_probe.run cfg).Workload.Latency_probe.one_way_us
  in
  List.iter
    (fun len ->
      let mv = probe Genie.Semantics.move len in
      let emv = probe Genie.Semantics.emulated_move len in
      R.scalar c ~name:(Printf.sprintf "ablation.region_hiding.%dB.move_us" len)
        ~unit_:"us" mv;
      R.scalar c
        ~name:(Printf.sprintf "ablation.region_hiding.%dB.emulated_move_us" len)
        ~unit_:"us" emv;
      Printf.printf
        "%6d bytes: move %.0f usec, emulated move %.0f usec (hiding saves \
         %.0f usec)\n"
        len mv emv (mv -. emv))
    [ 64; 2048; 61440 ]

(* Copy-conversion thresholds: sweep emulated copy with and without the
   automatic conversion. *)
let thresholds c =
  header "Copy-conversion thresholds (Section 6)";
  let probe ~th len =
    let cfg =
      {
        (Workload.Latency_probe.default ~sem:Genie.Semantics.emulated_copy ~len)
        with
        Workload.Latency_probe.spec =
          Workload.Experiments.light_spec Machine.Machine_spec.micron_p166;
        thresholds = Some th;
      }
    in
    (Workload.Latency_probe.run cfg).Workload.Latency_probe.one_way_us
  in
  let t =
    Stats.Text_table.create
      ~header:[ "bytes"; "with thresholds"; "no conversion"; "delta" ]
  in
  List.iter
    (fun len ->
      let on = probe ~th:Genie.Thresholds.default len in
      let off = probe ~th:Genie.Thresholds.no_conversion len in
      R.scalar c ~name:(Printf.sprintf "ablation.thresholds.%dB.with_us" len)
        ~unit_:"us" on;
      R.scalar c ~name:(Printf.sprintf "ablation.thresholds.%dB.without_us" len)
        ~unit_:"us" off;
      Stats.Text_table.add_row t
        [
          string_of_int len;
          Printf.sprintf "%.0f" on;
          Printf.sprintf "%.0f" off;
          Printf.sprintf "%+.0f" (off -. on);
        ])
    [ 256; 512; 1024; 1666; 2048; 3072; 4096 ];
  Stats.Text_table.print t;
  Printf.printf "(one-way latency, usec; conversion helps below ~1666 bytes)\n"

let run_all c =
  Printf.printf "\nAblations\n=========\n";
  tcow c;
  alignment c;
  wiring c;
  region_hiding c;
  thresholds c
