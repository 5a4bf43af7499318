(* Tests for the virtual memory substrate: address spaces, faults,
   TCOW, conventional COW, input-disabled COW, region hiding, wiring,
   pageout/pagein, page referencing and region caching. *)

module As = Vm.Address_space
module R = Vm.Region

let spec = { Machine.Machine_spec.micron_p166 with Machine.Machine_spec.memory_mb = 2 }
let psize = spec.Machine.Machine_spec.page_size

let fresh_space () =
  let vm = Vm.Vm_sys.create spec in
  (vm, As.create vm)

let base region = As.base_addr region ~page_size:psize

let test_read_write_roundtrip () =
  let _, space = fresh_space () in
  let region = As.map_region space ~npages:3 in
  let addr = base region + 100 in
  let data = Bytes.of_string "hello, genie" in
  As.write space ~addr data;
  Alcotest.(check bytes) "roundtrip" data (As.read space ~addr ~len:(Bytes.length data))

let test_cross_page_write () =
  let _, space = fresh_space () in
  let region = As.map_region space ~npages:2 in
  let addr = base region + psize - 3 in
  As.write space ~addr (Bytes.of_string "abcdef");
  Alcotest.(check string) "crosses boundary" "abcdef"
    (Bytes.to_string (As.read space ~addr ~len:6))

let test_segfault_outside_regions () =
  let _, space = fresh_space () in
  ignore (As.map_region space ~npages:1);
  Alcotest.(check bool) "raises segfault" true
    (try
       ignore (As.read space ~addr:(500 * psize) ~len:1);
       false
     with Vm.Vm_error.Segmentation_fault _ -> true)

let test_demand_zero () =
  let _, space = fresh_space () in
  let region = As.map_region space ~npages:2 ~populate:false in
  Alcotest.(check (option Alcotest.reject)) "no PTE yet" None
    (Option.map (fun _ -> assert false)
       (As.prot_of space ~vpn:region.R.start_vpn));
  let data = As.read space ~addr:(base region) ~len:16 in
  Alcotest.(check bool) "zero filled" true (Bytes.for_all (fun c -> c = '\x00') data);
  Alcotest.(check bool) "mapped after fault" true
    (As.prot_of space ~vpn:region.R.start_vpn <> None)

let test_remove_region () =
  let vm, space = fresh_space () in
  let free0 = Memory.Phys_mem.free_frames vm.Vm.Vm_sys.phys in
  let region = As.map_region space ~npages:4 in
  As.remove_region space region;
  Alcotest.(check bool) "invalid" false region.R.valid;
  Alcotest.(check int) "frames returned" free0
    (Memory.Phys_mem.free_frames vm.Vm.Vm_sys.phys);
  Alcotest.(check bool) "access faults" true
    (try
       ignore (As.read space ~addr:(base region) ~len:1);
       false
     with Vm.Vm_error.Segmentation_fault _ -> true)

(* {1 TCOW (Section 5.1)} *)

let test_tcow_copy_during_output () =
  let vm, space = fresh_space () in
  let region = As.map_region space ~npages:2 in
  let addr = base region in
  As.write space ~addr (Bytes.of_string "ORIGINAL");
  (* Arm TCOW: reference for output and drop write permission. *)
  let handle =
    Vm.Page_ref.reference space ~addr ~len:(2 * psize) Vm.Page_ref.For_output
  in
  As.make_readonly space region ~first:0 ~pages:2;
  Alcotest.(check bool) "read-only" true
    (As.prot_of space ~vpn:region.R.start_vpn = Some Vm.Prot.Read_only);
  let old_frame =
    match handle.Vm.Page_ref.frames with f :: _ -> f | [] -> assert false
  in
  (* Write during output: fault must copy, leaving the old frame to carry
     the output unchanged. *)
  As.write space ~addr (Bytes.of_string "SCRIBBLE");
  Alcotest.(check string) "old frame keeps output data" "ORIGINAL"
    (Bytes.sub_string (Memory.Frame.data old_frame) 0 8);
  Alcotest.(check string) "app sees new data" "SCRIBBLE"
    (Bytes.to_string (As.read space ~addr ~len:8));
  Alcotest.(check bool) "app now maps a different frame" true
    (As.resolve_read space ~vpn:region.R.start_vpn != old_frame);
  (* Output completes: old frame reclaimed (it left the object). *)
  let free_before = Memory.Phys_mem.free_frames vm.Vm.Vm_sys.phys in
  Vm.Page_ref.unreference handle;
  Alcotest.(check int) "displaced frame reclaimed" (free_before + 1)
    (Memory.Phys_mem.free_frames vm.Vm.Vm_sys.phys)

let test_tcow_no_copy_after_output () =
  let _, space = fresh_space () in
  let region = As.map_region space ~npages:1 in
  let addr = base region in
  let handle = Vm.Page_ref.reference space ~addr ~len:psize Vm.Page_ref.For_output in
  As.make_readonly space region ~first:0 ~pages:1;
  let frame_before = As.resolve_read space ~vpn:region.R.start_vpn in
  (* Output completes before the application writes. *)
  Vm.Page_ref.unreference handle;
  As.write space ~addr (Bytes.of_string "AFTER");
  let frame_after = As.resolve_read space ~vpn:region.R.start_vpn in
  Alcotest.(check bool) "write re-enabled in place, no copy" true
    (frame_before == frame_after);
  Alcotest.(check bool) "writable again" true
    (As.prot_of space ~vpn:region.R.start_vpn = Some Vm.Prot.Read_write)

(* {1 Conventional COW and input-disabled COW (Section 3.3)} *)

let test_clone_cow_isolation () =
  let _, space = fresh_space () in
  let region = As.map_region space ~npages:2 in
  let addr = base region in
  As.write space ~addr (Bytes.of_string "SHARED");
  let child = As.clone_cow space in
  (* Both read the same bytes, from the same physical frame. *)
  Alcotest.(check string) "child reads parent data" "SHARED"
    (Bytes.to_string (As.read child ~addr ~len:6));
  let pf = As.resolve_read space ~vpn:region.R.start_vpn in
  let cf = As.resolve_read child ~vpn:region.R.start_vpn in
  Alcotest.(check bool) "physically shared before writes" true (pf == cf);
  (* Child write: private copy; parent unaffected. *)
  As.write child ~addr (Bytes.of_string "CHILD!");
  Alcotest.(check string) "parent unchanged" "SHARED"
    (Bytes.to_string (As.read space ~addr ~len:6));
  Alcotest.(check string) "child changed" "CHILD!"
    (Bytes.to_string (As.read child ~addr ~len:6));
  (* Parent write after child fork also copies privately. *)
  As.write space ~addr (Bytes.of_string "PARENT");
  Alcotest.(check string) "child keeps its copy" "CHILD!"
    (Bytes.to_string (As.read child ~addr ~len:6))

let test_input_disabled_cow () =
  (* A pending DMA input bypasses write faults.  If the clone shared
     pages COW, the input would leak into the child (share semantics).
     Genie copies physically instead. *)
  let _, space = fresh_space () in
  let region = As.map_region space ~npages:1 in
  let addr = base region in
  As.write space ~addr (Bytes.of_string "BEFORE");
  let handle = Vm.Page_ref.reference space ~addr ~len:psize Vm.Page_ref.For_input in
  Alcotest.(check bool) "object counts the input" true
    (Vm.Memory_object.chain_input_refs region.R.obj > 0);
  let child = As.clone_cow space in
  (* Device DMA lands in the parent's frame, no faults involved. *)
  Memory.Io_desc.scatter handle.Vm.Page_ref.desc ~off:0
    ~src:(Bytes.of_string "DMAIN!") ~src_off:0 ~len:6;
  Alcotest.(check string) "parent observes the input" "DMAIN!"
    (Bytes.to_string (As.read space ~addr ~len:6));
  Alcotest.(check string) "child does NOT observe the input" "BEFORE"
    (Bytes.to_string (As.read child ~addr ~len:6));
  Vm.Page_ref.unreference handle

let test_cow_would_leak_without_input_disable () =
  (* Control experiment: the same scenario without the pending input
     shares physically, demonstrating why the check matters. *)
  let _, space = fresh_space () in
  let region = As.map_region space ~npages:1 in
  let addr = base region in
  As.write space ~addr (Bytes.of_string "BEFORE");
  let child = As.clone_cow space in
  let pf = As.resolve_read space ~vpn:region.R.start_vpn in
  (* Raw DMA into the shared frame (what a device would do). *)
  Memory.Frame.blit_in pf ~dst_off:0 ~src:(Bytes.of_string "DMAIN!") ~src_off:0 ~len:6;
  Alcotest.(check string) "leak through plain COW" "DMAIN!"
    (Bytes.to_string (As.read child ~addr ~len:6))

(* {1 Region hiding (Section 4)} *)

let test_region_hiding () =
  let _, space = fresh_space () in
  let region = As.map_region space ~npages:2 in
  let addr = base region in
  As.write space ~addr (Bytes.of_string "HIDDEN");
  As.invalidate space region ~first:0 ~pages:2;
  region.R.state <- R.Moved_out;
  Alcotest.(check bool) "read raises unrecoverable fault" true
    (try
       ignore (As.read space ~addr ~len:1);
       false
     with Vm.Vm_error.Unrecoverable_fault _ -> true);
  Alcotest.(check bool) "write raises too" true
    (try
       As.write space ~addr (Bytes.of_string "x");
       false
     with Vm.Vm_error.Unrecoverable_fault _ -> true);
  (* Reinstate: contents were preserved all along. *)
  region.R.state <- R.Moved_in;
  As.reinstate space region;
  Alcotest.(check string) "contents preserved" "HIDDEN"
    (Bytes.to_string (As.read space ~addr ~len:6))

let test_region_cache_queues () =
  let _, space = fresh_space () in
  let r1 = As.map_region space ~npages:2 in
  let r2 = As.map_region space ~npages:4 in
  r1.R.state <- R.Moved_out;
  r2.R.state <- R.Moved_out;
  As.cache_region space r1;
  As.cache_region space r2;
  (* Exact-size matching. *)
  (match As.dequeue_cached space ~kind:R.Moved_out ~npages:4 with
  | Some r -> Alcotest.(check int) "size matched" r2.R.id r.R.id
  | None -> Alcotest.fail "expected a cached region");
  (* Invalid regions are skipped. *)
  r1.R.state <- R.Moved_in;
  As.remove_region space r1;
  r1.R.state <- R.Moved_out;
  Alcotest.(check bool) "removed region skipped" true
    (As.dequeue_cached space ~kind:R.Moved_out ~npages:2 = None)

let test_ensure_region_rehome () =
  let vm, space = fresh_space () in
  let region = As.map_region space ~npages:2 in
  let addr = base region in
  As.write space ~addr (Bytes.of_string "KEEPME");
  let handle = Vm.Page_ref.reference space ~addr ~len:(2 * psize) Vm.Page_ref.For_input in
  (* The application rudely removes the region while input is pending. *)
  As.remove_region space region;
  Alcotest.(check bool) "frames became zombies" true
    (Memory.Phys_mem.zombie_count vm.Vm.Vm_sys.phys > 0);
  let fresh = As.ensure_region space region ~frames:handle.Vm.Page_ref.frames in
  Alcotest.(check bool) "new region" true (fresh.R.id <> region.R.id);
  Alcotest.(check int) "no zombies after adoption" 0
    (Memory.Phys_mem.zombie_count vm.Vm.Vm_sys.phys);
  Alcotest.(check string) "data still reachable" "KEEPME"
    (Bytes.to_string (As.read space ~addr:(base fresh) ~len:6));
  Vm.Page_ref.unreference handle

(* {1 Wiring and pageout/pagein} *)

let test_pageout_pagein_roundtrip () =
  let vm, space = fresh_space () in
  let region = As.map_region space ~npages:1 in
  let addr = base region in
  As.write space ~addr (Bytes.of_string "SWAPPED-OUT-DATA");
  let evicted = Vm.Vm_sys.run_pageout vm ~target:64 in
  Alcotest.(check bool) "something evicted" true (evicted >= 1);
  Alcotest.(check (option Alcotest.reject)) "PTE gone" None
    (Option.map (fun _ -> assert false) (As.prot_of space ~vpn:region.R.start_vpn));
  (* Access faults the page back in from the backing store. *)
  Alcotest.(check string) "pagein restores data" "SWAPPED-OUT-DATA"
    (Bytes.to_string (As.read space ~addr ~len:16))

let test_wire_blocks_pageout () =
  let vm, space = fresh_space () in
  let region = As.map_region space ~npages:2 in
  As.wire space region;
  Alcotest.(check int) "nothing evicted while wired" 0
    (Vm.Vm_sys.run_pageout vm ~target:64);
  As.unwire space region;
  Alcotest.(check bool) "evictable after unwire" true
    (Vm.Vm_sys.run_pageout vm ~target:64 >= 1)

let test_input_ref_blocks_pageout_e2e () =
  let vm, space = fresh_space () in
  let region = As.map_region space ~npages:2 in
  let addr = base region in
  let handle = Vm.Page_ref.reference space ~addr ~len:psize Vm.Page_ref.For_input in
  (* Only the second (unreferenced) page may be evicted. *)
  let n = Vm.Vm_sys.run_pageout vm ~target:64 in
  Alcotest.(check int) "only the non-input page went" 1 n;
  Alcotest.(check bool) "input page still resident" true
    (As.prot_of space ~vpn:region.R.start_vpn <> None);
  Vm.Page_ref.unreference handle

(* {1 Page referencing} *)

let test_page_ref_descriptor () =
  let _, space = fresh_space () in
  let region = As.map_region space ~npages:3 in
  let addr = base region + 1000 in
  let len = psize + 500 in
  let handle = Vm.Page_ref.reference space ~addr ~len Vm.Page_ref.For_output in
  Alcotest.(check int) "descriptor length" len
    (Memory.Io_desc.total_len handle.Vm.Page_ref.desc);
  Alcotest.(check int) "pages" 2 (Vm.Page_ref.pages handle);
  List.iter
    (fun (f : Memory.Frame.t) ->
      Alcotest.(check int) "output ref" 1 f.Memory.Frame.output_refs)
    handle.Vm.Page_ref.frames;
  Vm.Page_ref.unreference handle;
  List.iter
    (fun (f : Memory.Frame.t) ->
      Alcotest.(check int) "dropped" 0 f.Memory.Frame.output_refs)
    handle.Vm.Page_ref.frames;
  Alcotest.check_raises "double unreference"
    (Invalid_argument "Page_ref.unreference: already dropped") (fun () ->
      Vm.Page_ref.unreference handle)

let test_page_ref_input_faults_cow_copy () =
  (* Referencing for input verifies write rights, which faults in a
     private writable copy in a COW region (Section 3.3, reverse case). *)
  let _, space = fresh_space () in
  let region = As.map_region space ~npages:1 in
  let addr = base region in
  As.write space ~addr (Bytes.of_string "COWDATA");
  let child = As.clone_cow space in
  let shared = As.resolve_read child ~vpn:region.R.start_vpn in
  let handle = Vm.Page_ref.reference child ~addr ~len:psize Vm.Page_ref.For_input in
  let target =
    match handle.Vm.Page_ref.frames with f :: _ -> f | [] -> assert false
  in
  Alcotest.(check bool) "input targets a private copy" true (target != shared);
  (* DMA into the child's buffer must not touch the parent. *)
  Memory.Io_desc.scatter handle.Vm.Page_ref.desc ~off:0
    ~src:(Bytes.of_string "NEWDATA") ~src_off:0 ~len:7;
  Alcotest.(check string) "parent intact" "COWDATA"
    (Bytes.to_string (As.read space ~addr ~len:7));
  Vm.Page_ref.unreference handle

let test_reference_region () =
  let _, space = fresh_space () in
  let region = As.map_region space ~npages:4 in
  region.R.state <- R.Moved_out;
  As.invalidate space region ~first:0 ~pages:4;
  (* Hidden region: app access faults, but the kernel can still build a
     descriptor over its pages. *)
  let handle =
    Vm.Page_ref.reference_region space region ~len:((3 * psize) + 10)
      Vm.Page_ref.For_input
  in
  Alcotest.(check int) "covers 4 pages" 4 (Vm.Page_ref.pages handle);
  Alcotest.(check int) "length honored" ((3 * psize) + 10)
    (Memory.Io_desc.total_len handle.Vm.Page_ref.desc);
  Alcotest.(check int) "object input refs" 4
    (Vm.Memory_object.chain_input_refs region.R.obj);
  Vm.Page_ref.unreference handle;
  Alcotest.(check int) "counts dropped" 0
    (Vm.Memory_object.chain_input_refs region.R.obj)

(* {1 Page swapping} *)

let test_swap_into_region () =
  let vm, space = fresh_space () in
  let region = As.map_region space ~npages:1 in
  let addr = base region in
  As.write space ~addr (Bytes.of_string "OLDPAGE");
  let incoming = Memory.Phys_mem.alloc vm.Vm.Vm_sys.phys in
  Bytes.blit_string "NEWPAGE" 0 (Memory.Frame.data incoming) 0 7;
  (match As.swap_into_region space region ~page:0 incoming with
  | Some displaced ->
    Alcotest.(check string) "displaced carries old data" "OLDPAGE"
      (Bytes.sub_string (Memory.Frame.data displaced) 0 7)
  | None -> Alcotest.fail "expected a displaced frame");
  Alcotest.(check string) "app sees the swapped-in page" "NEWPAGE"
    (Bytes.to_string (As.read space ~addr ~len:7))

let test_destroy_space () =
  let vm, space = fresh_space () in
  let free0 = Memory.Phys_mem.free_frames vm.Vm.Vm_sys.phys in
  ignore (As.map_region space ~npages:3);
  ignore (As.map_region space ~npages:5);
  As.destroy space;
  Alcotest.(check int) "all frames back" free0
    (Memory.Phys_mem.free_frames vm.Vm.Vm_sys.phys);
  Alcotest.(check int) "no regions left" 0 (List.length (As.regions space))

let cow_random_writes =
  QCheck.Test.make ~name:"COW clones never alias writes" ~count:40
    QCheck.(pair (int_bound 3) (list_of_size Gen.(1 -- 10) (int_bound 4095)))
    (fun (page, offsets) ->
      let _, space = fresh_space () in
      let region = As.map_region space ~npages:4 in
      let addr0 = base region in
      As.write space ~addr:addr0
        (Genie.Buf.expected_pattern ~len:(4 * psize) ~seed:3);
      let child = As.clone_cow space in
      List.iter
        (fun off ->
          As.write child ~addr:(addr0 + (page * psize) + off) (Bytes.of_string "Z"))
        offsets;
      (* Parent must still read the original pattern. *)
      Bytes.equal
        (As.read space ~addr:addr0 ~len:(4 * psize))
        (Genie.Buf.expected_pattern ~len:(4 * psize) ~seed:3))

let test_rmap_consistency () =
  let vm, space = fresh_space () in
  let region = As.map_region space ~npages:3 in
  As.write space ~addr:(base region) (Bytes.make 100 'r');
  let view = List.hd (Vm.Vm_sys.space_views vm) in
  Alcotest.(check (list string)) "rmap clean" [] (view.Vm.Vm_sys.sv_rmap_errors ());
  (* Negative control on a raw table: dropping one reverse-map pair must
     be reported, with the totals disagreeing too. *)
  let pm = Memory.Phys_mem.create spec in
  let pt = Vm.Page_table.create () in
  let f = Memory.Phys_mem.alloc pm and g = Memory.Phys_mem.alloc pm in
  Vm.Page_table.map pt ~vpn:10 ~frame:f ~prot:Vm.Prot.Read_write;
  Vm.Page_table.map pt ~vpn:11 ~frame:f ~prot:Vm.Prot.Read_only;
  Vm.Page_table.map pt ~vpn:20 ~frame:g ~prot:Vm.Prot.Read_write;
  Alcotest.(check (list int)) "vpns ascending" [ 10; 11 ]
    (Vm.Page_table.vpns_of_frame pt f);
  Alcotest.(check (list string)) "clean" [] (Vm.Page_table.check_rmap pt);
  Vm.Page_table.unsafe_rmap_drop pt ~vpn:11 ~frame_id:f.Memory.Frame.id;
  Alcotest.(check bool) "corruption detected" true
    (Vm.Page_table.check_rmap pt <> []);
  (* Remapping the vpn heals the reverse map. *)
  Vm.Page_table.map pt ~vpn:11 ~frame:f ~prot:Vm.Prot.Read_only;
  Alcotest.(check (list string)) "healed" [] (Vm.Page_table.check_rmap pt)

let test_region_lookup_after_mutation () =
  (* The bisection array and last-hit cache must track region_list
     mutations: lookups stay correct across map/remove interleavings. *)
  let _, space = fresh_space () in
  let r1 = As.map_region space ~npages:2 in
  let r2 = As.map_region space ~npages:3 in
  let r3 = As.map_region space ~npages:1 in
  let check_hit r =
    Alcotest.(check bool) "found" true
      (match As.find_region space ~vaddr:(base r) with
      | Some r' -> r' == r
      | None -> false)
  in
  check_hit r1; check_hit r2; check_hit r3; check_hit r2;
  As.remove_region space r2;
  Alcotest.(check bool) "removed region not found" true
    (As.find_region space ~vaddr:(base r2) = None);
  check_hit r1; check_hit r3;
  Alcotest.(check bool) "guard gap unmapped" true
    (As.find_region space ~vaddr:(base r1 + 2 * psize) = None);
  let r4 = As.map_region space ~npages:2 in
  check_hit r4; check_hit r1;
  As.write space ~addr:(base r4 + psize - 2) (Bytes.make 4 'x');
  Alcotest.(check bytes) "cross-page after churn" (Bytes.make 4 'x')
    (As.read space ~addr:(base r4 + psize - 2) ~len:4)

let suite =
  [
    Alcotest.test_case "read/write roundtrip" `Quick test_read_write_roundtrip;
    Alcotest.test_case "cross-page write" `Quick test_cross_page_write;
    Alcotest.test_case "segfault outside regions" `Quick test_segfault_outside_regions;
    Alcotest.test_case "demand zero" `Quick test_demand_zero;
    Alcotest.test_case "remove region" `Quick test_remove_region;
    Alcotest.test_case "TCOW copies during output" `Quick test_tcow_copy_during_output;
    Alcotest.test_case "TCOW no copy after output" `Quick test_tcow_no_copy_after_output;
    Alcotest.test_case "COW clone isolation" `Quick test_clone_cow_isolation;
    Alcotest.test_case "input-disabled COW" `Quick test_input_disabled_cow;
    Alcotest.test_case "control: plain COW would leak" `Quick
      test_cow_would_leak_without_input_disable;
    Alcotest.test_case "region hiding" `Quick test_region_hiding;
    Alcotest.test_case "region cache queues" `Quick test_region_cache_queues;
    Alcotest.test_case "region check re-homes" `Quick test_ensure_region_rehome;
    Alcotest.test_case "pageout/pagein roundtrip" `Quick test_pageout_pagein_roundtrip;
    Alcotest.test_case "wiring blocks pageout" `Quick test_wire_blocks_pageout;
    Alcotest.test_case "input refs block pageout" `Quick
      test_input_ref_blocks_pageout_e2e;
    Alcotest.test_case "page referencing descriptor" `Quick test_page_ref_descriptor;
    Alcotest.test_case "input referencing faults in private copy" `Quick
      test_page_ref_input_faults_cow_copy;
    Alcotest.test_case "reference_region" `Quick test_reference_region;
    Alcotest.test_case "swap into region" `Quick test_swap_into_region;
    Alcotest.test_case "destroy space" `Quick test_destroy_space;
    Alcotest.test_case "rmap consistency" `Quick test_rmap_consistency;
    Alcotest.test_case "region lookup after mutation" `Quick
      test_region_lookup_after_mutation;
    QCheck_alcotest.to_alcotest cow_random_writes;
  ]
