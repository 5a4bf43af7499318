(* Behavioural tests of the Genie data-passing paths: threshold
   conversion, TCOW arming, region life cycles, reverse copyout edges,
   resource conservation, failures, and cross-semantics interop. *)

module As = Vm.Address_space
module R = Vm.Region
module Sem = Genie.Semantics

let light = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166
let world () = Genie.World.create ~spec_a:light ~spec_b:light ()
let psize = 4096

let app_buf host ?(offset = 0) ~len () =
  let space = Genie.Host.new_space host in
  let npages = (offset + len + psize - 1) / psize in
  let region = As.map_region space ~npages in
  (space, region,
   Genie.Buf.make space ~addr:(As.base_addr region ~page_size:psize + offset) ~len)

let moved_in_buf host ~len =
  let space = Genie.Host.new_space host in
  let npages = (len + psize - 1) / psize in
  let region = As.map_region space ~npages ~state:R.Moved_in in
  (space, region, Genie.Buf.make space ~addr:(As.base_addr region ~page_size:psize) ~len)

(* These tests run far from memory pressure, so backpressure is a bug. *)
let output_exn ep ~sem ~buf =
  match Genie.Endpoint.output ep ~sem ~buf () with
  | Ok o -> o
  | Error `Again -> Alcotest.fail "unexpected backpressure"

(* {1 Threshold conversion} *)

let test_emcopy_short_converts_to_copy () =
  (* Below 1666 bytes, emulated copy output becomes plain copy: the
     application pages are NOT made read-only. *)
  let w = world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let _, region, buf = app_buf w.Genie.World.a ~len:1000 () in
  Genie.Buf.fill_pattern buf ~seed:1;
  let _, _, rbuf = app_buf w.Genie.World.b ~len:1000 () in
  ignore
  (Genie.Endpoint.input eb ~sem:Sem.emulated_copy
    ~spec:(Genie.Input_path.App_buffer rbuf)
    ~on_complete:(fun _ -> ()));
  let outcome = output_exn ea ~sem:Sem.emulated_copy ~buf in
  Alcotest.(check bool) "converted" true
    (Sem.equal outcome.Genie.Output_path.semantics_used Sem.copy);
  Alcotest.(check bool) "pages stayed writable" true
    (As.prot_of buf.Genie.Buf.space ~vpn:region.R.start_vpn
    = Some Vm.Prot.Read_write);
  Genie.World.run w

let test_emcopy_large_arms_tcow () =
  let w = world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let _, region, buf = app_buf w.Genie.World.a ~len:(4 * psize) () in
  Genie.Buf.fill_pattern buf ~seed:1;
  let _, _, rbuf = app_buf w.Genie.World.b ~len:(4 * psize) () in
  ignore
  (Genie.Endpoint.input eb ~sem:Sem.emulated_copy
    ~spec:(Genie.Input_path.App_buffer rbuf)
    ~on_complete:(fun _ -> ()));
  let outcome = output_exn ea ~sem:Sem.emulated_copy ~buf in
  Alcotest.(check bool) "not converted" true
    (Sem.equal outcome.Genie.Output_path.semantics_used Sem.emulated_copy);
  Alcotest.(check bool) "pages read-only during output" true
    (As.prot_of buf.Genie.Buf.space ~vpn:region.R.start_vpn
    = Some Vm.Prot.Read_only);
  Genie.World.run w;
  (* After dispose, a write re-enables lazily with no copy. *)
  let before = As.resolve_read buf.Genie.Buf.space ~vpn:region.R.start_vpn in
  Genie.Buf.write buf (Bytes.make 8 'w');
  let after = As.resolve_read buf.Genie.Buf.space ~vpn:region.R.start_vpn in
  Alcotest.(check bool) "no copy after output" true (before == after)

let test_emshare_threshold () =
  let w = world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let _, _, buf = app_buf w.Genie.World.a ~len:200 () in
  Genie.Buf.fill_pattern buf ~seed:2;
  let _, _, rbuf = app_buf w.Genie.World.b ~len:200 () in
  ignore
  (Genie.Endpoint.input eb ~sem:Sem.emulated_share
    ~spec:(Genie.Input_path.App_buffer rbuf)
    ~on_complete:(fun _ -> ()));
  let outcome = output_exn ea ~sem:Sem.emulated_share ~buf in
  Alcotest.(check bool) "200 B emulated share converts" true
    (Sem.equal outcome.Genie.Output_path.semantics_used Sem.copy);
  Genie.World.run w

(* {1 System-allocated region life cycles} *)

let test_move_region_removed () =
  let w = world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let space_a, region, buf = moved_in_buf w.Genie.World.a ~len:8192 in
  Genie.Buf.fill_pattern buf ~seed:3;
  let space_b = Genie.Host.new_space w.Genie.World.b in
  ignore
  (Genie.Endpoint.input eb ~sem:Sem.move
    ~spec:(Genie.Input_path.Sys_alloc { space = space_b; len = 8192 })
    ~on_complete:(fun r ->
      Alcotest.(check bool) "ok" true (Genie.Input_path.ok r)));
  ignore (Genie.Endpoint.output ea ~sem:Sem.move ~buf ());
  Genie.World.run w;
  Alcotest.(check bool) "region removed after move output" false region.R.valid;
  Alcotest.(check bool) "access segfaults" true
    (try
       ignore (As.read space_a ~addr:buf.Genie.Buf.addr ~len:1);
       false
     with Vm.Vm_error.Segmentation_fault _ -> true)

let test_emulated_move_region_hidden_then_reused () =
  let w = world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let space_a, region, buf = moved_in_buf w.Genie.World.a ~len:8192 in
  Genie.Buf.fill_pattern buf ~seed:4;
  let space_b = Genie.Host.new_space w.Genie.World.b in
  let returned = ref None in
  ignore
  (Genie.Endpoint.input eb ~sem:Sem.emulated_move
    ~spec:(Genie.Input_path.Sys_alloc { space = space_b; len = 8192 })
    ~on_complete:(fun r -> returned := r.Genie.Input_path.buf));
  ignore (Genie.Endpoint.output ea ~sem:Sem.emulated_move ~buf ());
  Genie.World.run w;
  (* Sender side: region hidden, not removed. *)
  Alcotest.(check bool) "region still allocated" true region.R.valid;
  Alcotest.(check bool) "state moved out" true (region.R.state = R.Moved_out);
  Alcotest.(check bool) "access raises unrecoverable fault" true
    (try
       ignore (As.read space_a ~addr:buf.Genie.Buf.addr ~len:1);
       false
     with Vm.Vm_error.Unrecoverable_fault _ -> true);
  (* A subsequent input on the sender reuses the hidden region. *)
  let returned_a = ref None in
  ignore
  (Genie.Endpoint.input ea ~sem:Sem.emulated_move
    ~spec:(Genie.Input_path.Sys_alloc { space = space_a; len = 8192 })
    ~on_complete:(fun r -> returned_a := r.Genie.Input_path.buf));
  (match !returned with
  | Some echo_buf ->
    Genie.Buf.fill_pattern echo_buf ~seed:9;
    ignore (Genie.Endpoint.output eb ~sem:Sem.emulated_move ~buf:echo_buf ())
  | None -> Alcotest.fail "receiver got no region");
  Genie.World.run w;
  match !returned_a with
  | Some b ->
    Alcotest.(check int) "cached region reused (same addresses)"
      (As.base_addr region ~page_size:psize) b.Genie.Buf.addr;
    Alcotest.(check bool) "reinstated" true (region.R.state = R.Moved_in);
    Alcotest.(check bytes) "echo data correct"
      (Genie.Buf.expected_pattern ~len:8192 ~seed:9)
      (Genie.Buf.read b)
  | None -> Alcotest.fail "sender got no region back"

let test_weak_move_output_leaves_pages_mapped () =
  let w = world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let space_a, region, buf = moved_in_buf w.Genie.World.a ~len:4096 in
  Genie.Buf.fill_pattern buf ~seed:5;
  let space_b = Genie.Host.new_space w.Genie.World.b in
  ignore
  (Genie.Endpoint.input eb ~sem:Sem.weak_move
    ~spec:(Genie.Input_path.Sys_alloc { space = space_b; len = 4096 })
    ~on_complete:(fun _ -> ()));
  ignore (Genie.Endpoint.output ea ~sem:Sem.weak_move ~buf ());
  Genie.World.run w;
  Alcotest.(check bool) "weakly moved out" true
    (region.R.state = R.Weakly_moved_out);
  (* Weak integrity: the application CAN still read the buffer. *)
  ignore (As.read space_a ~addr:buf.Genie.Buf.addr ~len:16)

let test_system_sem_requires_moved_in () =
  let w = world () in
  let ea, _ = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let _, _, buf = app_buf w.Genie.World.a ~len:4096 () in
  Alcotest.(check bool) "move from unmovable region rejected" true
    (try
       ignore (Genie.Endpoint.output ea ~sem:Sem.move ~buf ());
       false
     with Vm.Vm_error.Semantics_error _ -> true)

let test_input_spec_mismatch_rejected () =
  let w = world () in
  let _, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let _, _, rbuf = app_buf w.Genie.World.b ~len:4096 () in
  let space = Genie.Host.new_space w.Genie.World.b in
  Alcotest.(check bool) "App_buffer with move rejected" true
    (try
       ignore
       (Genie.Endpoint.input eb ~sem:Sem.move
         ~spec:(Genie.Input_path.App_buffer rbuf)
         ~on_complete:(fun _ -> ()));
       false
     with Vm.Vm_error.Semantics_error _ -> true);
  Alcotest.(check bool) "Sys_alloc with copy rejected" true
    (try
       ignore
       (Genie.Endpoint.input eb ~sem:Sem.copy
         ~spec:(Genie.Input_path.Sys_alloc { space; len = 4096 })
         ~on_complete:(fun _ -> ()));
       false
     with Vm.Vm_error.Semantics_error _ -> true)

(* {1 Reverse copyout edges} *)

let reverse_copyout_case ~len ~offset =
  let w = world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let _, _, buf = app_buf w.Genie.World.a ~len () in
  Genie.Buf.fill_pattern buf ~seed:6;
  let space_b, _, rbuf = app_buf w.Genie.World.b ~offset ~len () in
  (* Sentinels all around the receive buffer (same pages). *)
  let page_base = rbuf.Genie.Buf.addr - offset in
  let total_pages = (offset + len + psize - 1) / psize in
  As.write space_b ~addr:page_base (Bytes.make (total_pages * psize) 'S');
  let got = ref None in
  ignore
  (Genie.Endpoint.input eb ~sem:Sem.emulated_copy
    ~spec:(Genie.Input_path.App_buffer rbuf)
    ~on_complete:(fun r -> got := Some r));
  ignore (Genie.Endpoint.output ea ~sem:Sem.emulated_copy ~buf ());
  Genie.World.run w;
  (match !got with
  | Some r -> Alcotest.(check bool) "ok" true (Genie.Input_path.ok r)
  | None -> Alcotest.fail "no completion");
  Alcotest.(check bytes) "payload intact"
    (Genie.Buf.expected_pattern ~len ~seed:6)
    (Genie.Buf.read rbuf);
  (* Surrounding bytes on the same pages must be preserved (reverse
     copyout completes partial pages with the app's own data). *)
  let before = As.read space_b ~addr:page_base ~len:offset in
  Alcotest.(check bool) "bytes before buffer preserved" true
    (Bytes.for_all (fun c -> c = 'S') before);
  let tail_start = offset + len in
  let tail_len = (total_pages * psize) - tail_start in
  let after = As.read space_b ~addr:(page_base + tail_start) ~len:tail_len in
  Alcotest.(check bool) "bytes after buffer preserved" true
    (Bytes.for_all (fun c -> c = 'S') after)

let test_reverse_copyout_short_partial () =
  (* Partial page data below the 2178-byte threshold: copied out. *)
  reverse_copyout_case ~len:(psize + 1000) ~offset:0

let test_reverse_copyout_long_partial () =
  (* Partial page data above the threshold: completed and swapped. *)
  reverse_copyout_case ~len:(psize + 3000) ~offset:0

let test_reverse_copyout_offset_buffer () =
  reverse_copyout_case ~len:(2 * psize) ~offset:1234

let test_reverse_copyout_exact_threshold () =
  reverse_copyout_case ~len:(psize + 2178) ~offset:0;
  reverse_copyout_case ~len:(psize + 2177) ~offset:0

(* {1 Resource conservation} *)

let test_pool_conservation () =
  (* Pooled input with swap-based semantics exchanges frames with the
     pool; after many transfers the pool level must be unchanged. *)
  List.iter
    (fun sem ->
      let w = world () in
      let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Pooled in
      let level0 = Genie.Host.pool_level w.Genie.World.b in
      for i = 1 to 4 do
        if Sem.system_allocated sem then begin
          let _, _, buf = moved_in_buf w.Genie.World.a ~len:8192 in
          Genie.Buf.fill_pattern buf ~seed:i;
          let space_b = Genie.Host.new_space w.Genie.World.b in
          ignore
          (Genie.Endpoint.input eb ~sem
            ~spec:(Genie.Input_path.Sys_alloc { space = space_b; len = 8192 })
            ~on_complete:(fun _ -> ()));
          ignore (Genie.Endpoint.output ea ~sem ~buf ())
        end
        else begin
          let _, _, buf = app_buf w.Genie.World.a ~len:8192 () in
          Genie.Buf.fill_pattern buf ~seed:i;
          let _, _, rbuf =
            app_buf w.Genie.World.b ~offset:Proto.Dgram_header.length ~len:8192 ()
          in
          ignore
          (Genie.Endpoint.input eb ~sem
            ~spec:(Genie.Input_path.App_buffer rbuf)
            ~on_complete:(fun _ -> ()));
          ignore (Genie.Endpoint.output ea ~sem ~buf ())
        end;
        Genie.World.run w
      done;
      Alcotest.(check int)
        (Sem.name sem ^ ": pool level conserved")
        level0
        (Genie.Host.pool_level w.Genie.World.b))
    Sem.all

(* The overlay pool against the eager pool it replaced: [pool_frames]
   allocations queued at creation, a borrow from physical memory when
   the queue is empty, puts appended.  Takes and puts interleave; every
   step must hand out the same frame id and leave the same level and
   the same take order. *)
let pool_matches_eager_queue =
  QCheck.Test.make ~name:"overlay pool takes in eager-queue order" ~count:100
    QCheck.(
      pair (int_bound 24)
        (list_of_size Gen.(int_range 1 60) (pair bool small_nat)))
    (fun (pool_frames, script) ->
      let spec = { light with Machine.Machine_spec.memory_mb = 1 } in
      let host =
        Genie.Host.create ~pool_frames (Simcore.Engine.create ())
          Net.Net_params.oc3 spec ~name:"h"
      in
      (* A VM of its own, so its fault reserve takes the same ids. *)
      let pm = (Vm.Vm_sys.create spec).Vm.Vm_sys.phys in
      let eager = Queue.create () in
      for _ = 1 to pool_frames do
        Queue.add (Memory.Phys_mem.alloc pm) eager
      done;
      let id (f : Memory.Frame.t) = f.Memory.Frame.id in
      let taken = ref [] in
      let step (take, i) =
        if take then begin
          let got = Genie.Host.pool_take_opt host in
          let want =
            match Queue.take_opt eager with
            | Some _ as f -> f
            | None -> Some (Memory.Phys_mem.alloc pm)
          in
          (match (got, want) with
          | Some f, Some g -> taken := (f, g) :: !taken
          | _ -> ());
          Option.map id got = Option.map id want
        end
        else begin
          (match !taken with
          | [] -> ()
          | l ->
            let ((f, g) as pair) = List.nth l (i mod List.length l) in
            taken := List.filter (fun p -> p != pair) l;
            Genie.Host.pool_put host f;
            Queue.add g eager);
          true
        end
      in
      let order () =
        let ids = ref [] in
        Genie.Host.iter_pool host (fun f -> ids := id f :: !ids);
        List.rev !ids = List.of_seq (Seq.map id (Queue.to_seq eager))
      in
      List.for_all
        (fun op ->
          step op && Genie.Host.pool_level host = Queue.length eager && order ())
        script)

(* Construction is pay-as-you-go: frame table, overlay pool and
   timer-wheel buckets are built on first use, so a probe world costs a
   few thousand words (eager construction took ~33 K). *)
let test_world_allocation () =
  let n = 20 in
  let per_world =
    Test_util.words_allocated (fun () ->
        List.init n (fun _ ->
            let w = world () in
            (w, Genie.World.endpoint_pair w ~vc:5 ~mode:Net.Adapter.Early_demux)))
    /. float_of_int n
  in
  if per_world > 8000. then
    Alcotest.failf "World.create + endpoint_pair allocates %.0f words (> 8,000)"
      per_world

let test_frame_conservation_steady_state () =
  (* Repeated transfers must not leak physical frames. *)
  List.iter
    (fun sem ->
      let w = world () in
      let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
      let phys_b = w.Genie.World.b.Genie.Host.vm.Vm.Vm_sys.phys in
      let space_b = Genie.Host.new_space w.Genie.World.b in
      let _, _, rbuf = app_buf w.Genie.World.b ~len:8192 () in
      let send i =
        if Sem.system_allocated sem then begin
          let _, _, buf = moved_in_buf w.Genie.World.a ~len:8192 in
          Genie.Buf.fill_pattern buf ~seed:i;
          let result = ref None in
          ignore
          (Genie.Endpoint.input eb ~sem
            ~spec:(Genie.Input_path.Sys_alloc { space = space_b; len = 8192 })
            ~on_complete:(fun r -> result := Some r));
          ignore (Genie.Endpoint.output ea ~sem ~buf ());
          Genie.World.run w;
          (* Release the received region so rounds are comparable. *)
          match !result with
          | Some { Genie.Input_path.buf = Some b; _ } ->
            let region = As.region_of_addr space_b ~vaddr:b.Genie.Buf.addr in
            As.remove_region space_b region
          | _ -> Alcotest.fail "no result"
        end
        else begin
          let _, _, buf = app_buf w.Genie.World.a ~len:8192 () in
          Genie.Buf.fill_pattern buf ~seed:i;
          ignore
          (Genie.Endpoint.input eb ~sem
            ~spec:(Genie.Input_path.App_buffer rbuf)
            ~on_complete:(fun _ -> ()));
          ignore (Genie.Endpoint.output ea ~sem ~buf ());
          Genie.World.run w
        end
      in
      send 1;
      let free1 = Memory.Phys_mem.free_frames phys_b in
      send 2;
      send 3;
      let free3 = Memory.Phys_mem.free_frames phys_b in
      Alcotest.(check int)
        (Sem.name sem ^ ": receiver frames steady")
        free1 free3;
      Alcotest.(check int)
        (Sem.name sem ^ ": no zombies")
        0
        (Memory.Phys_mem.zombie_count phys_b))
    Sem.all

(* {1 Failure handling} *)

let test_overrun_fails_strong_input_cleanly () =
  (* Sender ships more than the receiver posted: strong-integrity input
     reports failure and leaves the application buffer untouched. *)
  let w = world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let _, _, big = app_buf w.Genie.World.a ~len:(3 * psize) () in
  Genie.Buf.fill_pattern big ~seed:7;
  let _, _, small = app_buf w.Genie.World.b ~len:psize () in
  Genie.Buf.write small (Bytes.make psize 'U');
  let got = ref None in
  ignore
  (Genie.Endpoint.input eb ~sem:Sem.copy
    ~spec:(Genie.Input_path.App_buffer small)
    ~on_complete:(fun r -> got := Some r));
  ignore (Genie.Endpoint.output ea ~sem:Sem.copy ~buf:big ());
  Genie.World.run w;
  (match !got with
  | Some r ->
    Alcotest.(check bool) "failed" false (Genie.Input_path.ok r);
    Alcotest.(check bool) "no buffer returned" true (r.Genie.Input_path.buf = None)
  | None -> Alcotest.fail "no completion");
  Alcotest.(check bool) "buffer untouched" true
    (Bytes.for_all (fun c -> c = 'U') (Genie.Buf.read small))

(* {1 Cross-semantics interop} *)

let test_mixed_semantics_matrix () =
  List.iter
    (fun send_sem ->
      List.iter
        (fun recv_sem ->
          let w = world () in
          let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
          let len = 6000 in
          let buf =
            if Sem.system_allocated send_sem then
              let _, _, b = moved_in_buf w.Genie.World.a ~len in
              b
            else
              let _, _, b = app_buf w.Genie.World.a ~len () in
              b
          in
          Genie.Buf.fill_pattern buf ~seed:8;
          let spec =
            if Sem.system_allocated recv_sem then
              Genie.Input_path.Sys_alloc
                { space = Genie.Host.new_space w.Genie.World.b; len }
            else begin
              let _, _, rb = app_buf w.Genie.World.b ~len () in
              Genie.Input_path.App_buffer rb
            end
          in
          let got = ref None in
          ignore
          (Genie.Endpoint.input eb ~sem:recv_sem ~spec ~on_complete:(fun r ->
              got := Some r));
          ignore (Genie.Endpoint.output ea ~sem:send_sem ~buf ());
          Genie.World.run w;
          match !got with
          | Some { Genie.Input_path.buf = Some b; status = Ok (); _ } ->
            if not (Bytes.equal (Genie.Buf.read b) (Genie.Buf.expected_pattern ~len ~seed:8))
            then
              Alcotest.failf "%s -> %s: data mismatch" (Sem.name send_sem)
                (Sem.name recv_sem)
          | _ ->
            Alcotest.failf "%s -> %s: transfer failed" (Sem.name send_sem)
              (Sem.name recv_sem))
        Sem.all)
    Sem.all

(* {1 Synchronous input (data before the input call)} *)

let test_synchronous_input_pooled () =
  let w = world () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Pooled in
  let _, _, buf = app_buf w.Genie.World.a ~len:5000 () in
  Genie.Buf.fill_pattern buf ~seed:11;
  ignore (Genie.Endpoint.output ea ~sem:Sem.copy ~buf ());
  (* Let the datagram arrive with nobody waiting. *)
  Genie.World.run w;
  let _, _, rbuf = app_buf w.Genie.World.b ~len:5000 () in
  let got = ref None in
  ignore
  (Genie.Endpoint.input eb ~sem:Sem.copy
    ~spec:(Genie.Input_path.App_buffer rbuf)
    ~on_complete:(fun r -> got := Some r));
  Genie.World.run w;
  match !got with
  | Some { Genie.Input_path.status = Ok (); buf = Some b; _ } ->
    Alcotest.(check bytes) "late input still gets the data"
      (Genie.Buf.expected_pattern ~len:5000 ~seed:11)
      (Genie.Buf.read b)
  | _ -> Alcotest.fail "synchronous input failed"

let suite =
  [
    Alcotest.test_case "emulated copy short output converts" `Quick
      test_emcopy_short_converts_to_copy;
    Alcotest.test_case "emulated copy large output arms TCOW" `Quick
      test_emcopy_large_arms_tcow;
    Alcotest.test_case "emulated share threshold" `Quick test_emshare_threshold;
    Alcotest.test_case "move removes the region" `Quick test_move_region_removed;
    Alcotest.test_case "emulated move hides and reuses the region" `Quick
      test_emulated_move_region_hidden_then_reused;
    Alcotest.test_case "weak move leaves pages mapped" `Quick
      test_weak_move_output_leaves_pages_mapped;
    Alcotest.test_case "system semantics require moved-in regions" `Quick
      test_system_sem_requires_moved_in;
    Alcotest.test_case "input spec mismatch rejected" `Quick
      test_input_spec_mismatch_rejected;
    Alcotest.test_case "reverse copyout: short partial page" `Quick
      test_reverse_copyout_short_partial;
    Alcotest.test_case "reverse copyout: long partial page" `Quick
      test_reverse_copyout_long_partial;
    Alcotest.test_case "reverse copyout: offset buffer" `Quick
      test_reverse_copyout_offset_buffer;
    Alcotest.test_case "reverse copyout: threshold boundary" `Quick
      test_reverse_copyout_exact_threshold;
    Alcotest.test_case "overlay pool conservation" `Quick test_pool_conservation;
    QCheck_alcotest.to_alcotest pool_matches_eager_queue;
    Alcotest.test_case "world construction allocates under 8,000 words" `Quick
      test_world_allocation;
    Alcotest.test_case "frame conservation in steady state" `Quick
      test_frame_conservation_steady_state;
    Alcotest.test_case "overrun fails strong input cleanly" `Quick
      test_overrun_fails_strong_input_cleanly;
    Alcotest.test_case "mixed semantics 8x8 matrix" `Slow test_mixed_semantics_matrix;
    Alcotest.test_case "synchronous input (pooled)" `Quick test_synchronous_input_pooled;
  ]
