(* Tests for the physical memory substrate: frames, the free list,
   I/O-deferred page deallocation, the pageout daemon's input-disabled
   policy, descriptors and the backing store. *)

let spec = { Machine.Machine_spec.micron_p166 with Machine.Machine_spec.memory_mb = 1 }
(* 256 frames: big enough for tests, small enough to exhaust. *)

let fresh () = Memory.Phys_mem.create spec

let with_poison f =
  Memory.Phys_mem.debug_poison := true;
  Fun.protect ~finally:(fun () -> Memory.Phys_mem.debug_poison := false) f

let test_alloc_free () =
  with_poison @@ fun () ->
  let pm = fresh () in
  let total = Memory.Phys_mem.total_frames pm in
  Alcotest.(check int) "256 frames" 256 total;
  let f = Memory.Phys_mem.alloc pm in
  Alcotest.(check int) "one taken" (total - 1) (Memory.Phys_mem.free_frames pm);
  Alcotest.(check char) "poisoned" '\xAA' (Bytes.get (Memory.Frame.data f) 0);
  Memory.Phys_mem.deallocate pm f;
  Alcotest.(check int) "returned" total (Memory.Phys_mem.free_frames pm)

let test_alloc_zeroed () =
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc_zeroed pm in
  Alcotest.(check bool) "all zero" true
    (Bytes.for_all (fun c -> c = '\x00') (Memory.Frame.data f))

let test_exhaustion () =
  let pm = fresh () in
  let _all = Memory.Phys_mem.alloc_many pm 256 in
  Alcotest.check_raises "out of frames" Memory.Phys_mem.Out_of_frames (fun () ->
      ignore (Memory.Phys_mem.alloc pm))

let test_double_free_raises () =
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc pm in
  Memory.Phys_mem.deallocate pm f;
  Alcotest.check_raises "double free"
    (Invalid_argument "Phys_mem.deallocate: frame already free") (fun () ->
      Memory.Phys_mem.deallocate pm f)

let test_deferred_deallocation () =
  (* The heart of Section 3.1: a frame deallocated with pending I/O must
     not reach the free list until the last reference drops. *)
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc pm in
  Bytes.set (Memory.Frame.data f) 0 'D';
  Memory.Phys_mem.ref_output pm f;
  Memory.Phys_mem.ref_output pm f;
  let free_before = Memory.Phys_mem.free_frames pm in
  Memory.Phys_mem.deallocate pm f;
  Alcotest.(check int) "not freed yet" free_before (Memory.Phys_mem.free_frames pm);
  Alcotest.(check int) "zombie" 1 (Memory.Phys_mem.zombie_count pm);
  Alcotest.(check char) "data still readable by DMA" 'D'
    (Bytes.get (Memory.Frame.data f) 0);
  Memory.Phys_mem.unref_output pm f;
  Alcotest.(check int) "still held" free_before (Memory.Phys_mem.free_frames pm);
  Memory.Phys_mem.unref_output pm f;
  Alcotest.(check int) "reclaimed" (free_before + 1) (Memory.Phys_mem.free_frames pm);
  Alcotest.(check int) "no zombies" 0 (Memory.Phys_mem.zombie_count pm)

let test_adopt_zombie () =
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc pm in
  Memory.Phys_mem.ref_input pm f;
  Memory.Phys_mem.deallocate pm f;
  Alcotest.(check int) "zombie" 1 (Memory.Phys_mem.zombie_count pm);
  Memory.Phys_mem.adopt pm f;
  Alcotest.(check int) "adopted" 0 (Memory.Phys_mem.zombie_count pm);
  let free = Memory.Phys_mem.free_frames pm in
  Memory.Phys_mem.unref_input pm f;
  Alcotest.(check int) "unref does not free adopted frame" free
    (Memory.Phys_mem.free_frames pm)

let test_alloc_many_partial_exhaustion () =
  (* Regression: a batch that ran out of frames mid-way used to leak the
     partially allocated prefix, permanently shrinking the free list. *)
  let pm = fresh () in
  let total = Memory.Phys_mem.total_frames pm in
  let keep = Memory.Phys_mem.alloc_many pm (total - 6) in
  Alcotest.(check int) "six left" 6 (Memory.Phys_mem.free_frames pm);
  Alcotest.check_raises "batch too large" Memory.Phys_mem.Out_of_frames
    (fun () -> ignore (Memory.Phys_mem.alloc_many pm 10));
  Alcotest.(check int) "partial batch returned" 6
    (Memory.Phys_mem.free_frames pm);
  (* The survivors are genuinely allocatable. *)
  let rest = Memory.Phys_mem.alloc_many pm 6 in
  Alcotest.(check int) "empty" 0 (Memory.Phys_mem.free_frames pm);
  List.iter (Memory.Phys_mem.deallocate pm) (keep @ rest)

let test_alloc_zeroed_after_reuse () =
  (* known_zero soundness: a frame that was handed out, dirtied and freed
     must be re-zeroed by alloc_zeroed; only never-allocated frames may
     skip the fill. *)
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc pm in
  Bytes.set (Memory.Frame.data f) 17 'X';
  Memory.Phys_mem.deallocate pm f;
  let total = Memory.Phys_mem.total_frames pm in
  let all_zero (g : Memory.Frame.t) =
    Bytes.for_all (fun c -> c = '\x00') (Memory.Frame.data g)
  in
  (* Drain the whole free list; every zeroed allocation (including the
     recycled dirty frame, wherever the queue put it) must be clean. *)
  for _ = 1 to total do
    Alcotest.(check bool) "zeroed" true (all_zero (Memory.Phys_mem.alloc_zeroed pm))
  done

let test_untouched_recycled_frame () =
  (* Frames handed out and freed without their bytes ever being touched:
     the next hand-out still refills them, allocating their page. *)
  let pm = fresh () in
  let total = Memory.Phys_mem.total_frames pm in
  List.iter (Memory.Phys_mem.deallocate pm) (Memory.Phys_mem.alloc_many pm total);
  let all c (f : Memory.Frame.t) =
    Memory.Frame.page_size f = 4096
    && Bytes.for_all (fun b -> b = c) (Memory.Frame.data f)
  in
  Alcotest.(check bool) "zeroed" true (all '\x00' (Memory.Phys_mem.alloc_zeroed pm));
  with_poison @@ fun () ->
  Alcotest.(check bool) "poisoned" true (all '\xAA' (Memory.Phys_mem.alloc pm))

let test_create_allocates_no_pages () =
  (* Frames are born on first touch: creating a 32 MB host costs words
     per frame, not the configured memory. *)
  let spec = Machine.Machine_spec.micron_p166 in
  let before = Gc.allocated_bytes () in
  let pm = Sys.opaque_identity (Memory.Phys_mem.create spec) in
  let cost = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "8192 frames" 8192 (Memory.Phys_mem.total_frames pm);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes allocated" cost)
    true
    (cost < 16. *. float_of_int (Memory.Phys_mem.total_frames pm))

(* {1 Phys_mem against the eager model} *)

type op =
  | Alloc
  | Alloc_zeroed
  | Alloc_many of int
  | Deallocate of int  (** the n-th held frame, modulo *)
  | Ref_input of int
  | Ref_output of int
  | Unref_input of int
  | Unref_output of int
  | Adopt of int
  | Write of int * int * char  (** held frame, offset, byte *)
  | Lookup of int  (** any frame id, modulo *)
  | Poison of bool
  | Alloc_block of int
  | Block_take of int  (** from the n-th block, modulo *)
  | Block_add of int * int  (** held frame into block *)

let show_op = function
  | Alloc -> "alloc"
  | Alloc_zeroed -> "alloc_zeroed"
  | Alloc_many n -> Printf.sprintf "alloc_many %d" n
  | Deallocate i -> Printf.sprintf "deallocate %d" i
  | Ref_input i -> Printf.sprintf "ref_input %d" i
  | Ref_output i -> Printf.sprintf "ref_output %d" i
  | Unref_input i -> Printf.sprintf "unref_input %d" i
  | Unref_output i -> Printf.sprintf "unref_output %d" i
  | Adopt i -> Printf.sprintf "adopt %d" i
  | Write (i, off, c) -> Printf.sprintf "write %d @%d %C" i off c
  | Lookup id -> Printf.sprintf "frame_by_id %d" id
  | Poison b -> Printf.sprintf "debug_poison %b" b
  | Alloc_block n -> Printf.sprintf "alloc_block %d" n
  | Block_take i -> Printf.sprintf "block_take %d" i
  | Block_add (i, b) -> Printf.sprintf "block_add %d -> %d" i b

let op_gen =
  QCheck.Gen.(
    let i = int_bound 63 in
    frequency
      [
        (6, return Alloc);
        (5, return Alloc_zeroed);
        (3, map (fun n -> Alloc_many n) (int_bound 20));
        (8, map (fun i -> Deallocate i) i);
        (3, map (fun i -> Ref_input i) i);
        (3, map (fun i -> Ref_output i) i);
        (3, map (fun i -> Unref_input i) i);
        (3, map (fun i -> Unref_output i) i);
        (1, map (fun i -> Adopt i) i);
        (4, map3 (fun i off c -> Write (i, off, c)) i nat char);
        (4, map (fun id -> Lookup id) i);
        (2, map (fun b -> Poison b) bool);
        (2, map (fun n -> Alloc_block n) (int_bound 12));
        (4, map (fun i -> Block_take i) i);
        (2, map2 (fun i b -> Block_add (i, b)) i i);
      ])

let script =
  QCheck.make
    ~print:(fun (poison, ops) ->
      Printf.sprintf "poison=%b: %s" poison
        (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(pair bool (list_size (int_range 1 80) op_gen))

(* 16 frames, so scripts reach exhaustion and recycle ids. *)
let model_spec = { spec with Machine.Machine_spec.page_size = 65536 }

module PM = Memory.Phys_mem
module F = Memory.Frame
module M = Phys_mem_model

let same_state (f : F.t) (mf : M.frame) =
  match (f.F.state, mf.M.state) with
  | F.Free, M.Free | F.Allocated, M.Allocated | F.Zombie, M.Zombie -> true
  | _ -> false

let phys_mem_matches_model =
  QCheck.Test.make ~name:"phys_mem matches the eager model on random scripts"
    ~count:200 script (fun (poison, ops) ->
      PM.debug_poison := poison;
      Fun.protect ~finally:(fun () -> PM.debug_poison := false) @@ fun () ->
      let pm = PM.create model_spec in
      let m = M.create ~frames:(PM.total_frames pm) ~page_size:(PM.page_size pm) in
      let same_frame ((f : F.t), (mf : M.frame)) =
        f.F.id = mf.M.id && same_state f mf
        && f.F.input_refs = mf.M.input_refs
        && f.F.output_refs = mf.M.output_refs
        && Bytes.equal (F.data f) mf.M.data
        && PM.frame_by_id pm f.F.id == f
      in
      (* (frame, model frame) pairs handed out and not yet back on the
         free list, in hand-out order. *)
      let held = ref [] in
      (* (block, model queue) pairs, in hand-out order. *)
      let blocks = ref [] in
      (* What a step checks itself: the same ids handed out (or the same
         exhaustion), the same frame looked up. *)
      let step_ok = ref true in
      let on_held pred i f =
        match List.filter pred !held with
        | [] -> ()
        | l -> f (List.nth l (i mod List.length l))
      in
      let hand_out real model =
        match real () with
        | frames ->
          let mframes = model () in
          step_ok :=
            List.map (fun (f : F.t) -> f.F.id) frames
            = List.map (fun (f : M.frame) -> f.M.id) mframes;
          if !step_ok then held := !held @ List.combine frames mframes
        | exception PM.Out_of_frames ->
          step_ok :=
            (match model () with _ -> false | exception M.Out_of_frames -> true)
      in
      let any _ = true in
      let allocated ((f : F.t), _) = f.F.state = F.Allocated in
      let step = function
        | Alloc -> hand_out (fun () -> [ PM.alloc pm ]) (fun () -> [ M.alloc m ])
        | Alloc_zeroed ->
          hand_out (fun () -> [ PM.alloc_zeroed pm ]) (fun () -> [ M.alloc_zeroed m ])
        | Alloc_many n ->
          hand_out (fun () -> PM.alloc_many pm n) (fun () -> M.alloc_many m n)
        | Deallocate i ->
          on_held allocated i (fun (f, mf) ->
              PM.deallocate pm f;
              M.deallocate m mf)
        | Ref_input i ->
          on_held any i (fun (f, mf) ->
              PM.ref_input pm f;
              M.ref_input mf)
        | Ref_output i ->
          on_held any i (fun (f, mf) ->
              PM.ref_output pm f;
              M.ref_output mf)
        | Unref_input i ->
          on_held (fun (f, _) -> f.F.input_refs > 0) i (fun (f, mf) ->
              PM.unref_input pm f;
              M.unref_input m mf)
        | Unref_output i ->
          on_held (fun (f, _) -> f.F.output_refs > 0) i (fun (f, mf) ->
              PM.unref_output pm f;
              M.unref_output m mf)
        | Adopt i ->
          on_held any i (fun (f, mf) ->
              PM.adopt pm f;
              M.adopt m mf)
        | Write (i, off, c) ->
          on_held any i (fun (f, mf) ->
              let off = off mod PM.page_size pm in
              Bytes.set (F.data f) off c;
              Bytes.set mf.M.data off c)
        | Lookup id ->
          let id = id mod PM.total_frames pm in
          step_ok := same_frame (PM.frame_by_id pm id, M.frame_by_id m id)
        | Poison b -> PM.debug_poison := b
        | Alloc_block n -> (
          match PM.alloc_block pm n with
          | b -> (
            match M.alloc_block m n with
            | q -> blocks := !blocks @ [ (b, q) ]
            | exception M.Out_of_frames -> step_ok := false)
          | exception PM.Out_of_frames ->
            step_ok :=
              (match M.alloc_block m n with
              | _ -> false
              | exception M.Out_of_frames -> true))
        | Block_take i -> (
          match !blocks with
          | [] -> ()
          | l ->
            let b, q = List.nth l (i mod List.length l) in
            hand_out
              (fun () -> Option.to_list (PM.block_take b))
              (fun () -> Option.to_list (Queue.take_opt q)))
        | Block_add (i, j) -> (
          match !blocks with
          | [] -> ()
          | l ->
            let b, q = List.nth l (j mod List.length l) in
            on_held allocated i (fun ((f, mf) as pair) ->
                held := List.filter (fun p -> p != pair) !held;
                PM.block_add b f;
                Queue.add mf q))
      in
      let agree () =
        let ok =
          !step_ok
          && PM.free_frames pm = M.free_frames m
          && PM.free_ids pm = M.free_ids m
          && PM.zombie_count pm = M.zombie_count m
          && List.for_all same_frame !held
          && List.for_all
               (fun (b, q) -> PM.block_length b = Queue.length q)
               !blocks
        in
        held := List.filter (fun ((f : F.t), _) -> f.F.state <> F.Free) !held;
        ok
      in
      List.for_all
        (fun op ->
          step op;
          agree ())
        ops)

let test_buf_pool_classes () =
  let pool = Memory.Buf_pool.create () in
  let b = Memory.Buf_pool.take pool ~len:100 in
  Alcotest.(check int) "rounded to 128" 128 (Bytes.length b);
  Alcotest.(check int) "tiny rounds to 64" 64
    (Bytes.length (Memory.Buf_pool.take pool ~len:1));
  Alcotest.(check int) "exact class kept" 4096
    (Bytes.length (Memory.Buf_pool.take pool ~len:4096));
  (* Oversized requests bypass the classes entirely. *)
  let big = Memory.Buf_pool.take pool ~len:(1 lsl 20) in
  Alcotest.(check int) "oversize exact" (1 lsl 20) (Bytes.length big);
  Memory.Buf_pool.give pool big;
  Alcotest.(check bool) "oversize not pooled" false
    (Memory.Buf_pool.take pool ~len:(1 lsl 20) == big)

let test_buf_pool_reuse () =
  let pool = Memory.Buf_pool.create () in
  let b = Memory.Buf_pool.take pool ~len:512 in
  Memory.Buf_pool.give pool b;
  let b' = Memory.Buf_pool.take pool ~len:300 in
  Alcotest.(check bool) "same buffer recycled" true (b == b');
  Alcotest.(check int) "one hit" 1 (Memory.Buf_pool.hits pool);
  Memory.Buf_pool.give pool b';
  Alcotest.(check bool) "different class misses" false
    (Memory.Buf_pool.take pool ~len:64 == b')

let test_buf_pool_poison () =
  Memory.Buf_pool.debug_poison := true;
  Fun.protect ~finally:(fun () -> Memory.Buf_pool.debug_poison := false)
  @@ fun () ->
  let pool = Memory.Buf_pool.create () in
  let b = Memory.Buf_pool.take pool ~len:64 in
  Bytes.fill b 0 64 'S';
  Memory.Buf_pool.give pool b;
  (* A consumer that peeks at recycled bytes before overwriting them sees
     poison, never stale payload. *)
  Alcotest.(check char) "poisoned on give" '\xA5' (Bytes.get b 0);
  Alcotest.(check bool) "fully poisoned" true
    (Bytes.for_all (fun c -> c = '\xA5') b)

let test_unref_without_ref_raises () =
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc pm in
  Alcotest.check_raises "no ref" (Invalid_argument "Phys_mem.unref_input: no reference")
    (fun () -> Memory.Phys_mem.unref_input pm f)

(* {1 Io_desc} *)

let make_frame pm s =
  let f = Memory.Phys_mem.alloc pm in
  Bytes.blit_string s 0 (Memory.Frame.data f) 0 (String.length s);
  f

let test_desc_gather_scatter () =
  let pm = fresh () in
  let f1 = make_frame pm "AAAABBBB" and f2 = make_frame pm "CCCCDDDD" in
  let desc =
    Memory.Io_desc.of_segs
      [
        { Memory.Io_desc.frame = f1; off = 4; len = 4 };
        { Memory.Io_desc.frame = f2; off = 0; len = 4 };
      ]
  in
  Alcotest.(check int) "total" 8 (Memory.Io_desc.total_len desc);
  Alcotest.(check string) "gather" "BBBBCCCC"
    (Bytes.to_string (Memory.Io_desc.gather desc ~off:0 ~len:8));
  Alcotest.(check string) "gather middle" "BCC"
    (Bytes.to_string (Memory.Io_desc.gather desc ~off:3 ~len:3));
  Memory.Io_desc.scatter desc ~off:2 ~src:(Bytes.of_string "xyz") ~src_off:0 ~len:3;
  Alcotest.(check string) "scatter across segs" "BBxyzCC"
    (Bytes.to_string (Memory.Io_desc.gather desc ~off:0 ~len:7));
  Alcotest.(check string) "frame 1 updated" "AAAABBxy"
    (Bytes.sub_string (Memory.Frame.data f1) 0 8);
  Alcotest.(check string) "frame 2 updated" "zCCC"
    (Bytes.sub_string (Memory.Frame.data f2) 0 4)

let test_desc_bounds () =
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc pm in
  let desc = Memory.Io_desc.single f ~off:0 ~len:16 in
  Alcotest.check_raises "gather out of bounds"
    (Invalid_argument "Io_desc: range out of bounds") (fun () ->
      ignore (Memory.Io_desc.gather desc ~off:10 ~len:10));
  Alcotest.check_raises "bad segment"
    (Invalid_argument "Io_desc.of_segs: segment out of frame bounds") (fun () ->
      ignore (Memory.Io_desc.of_segs [ { Memory.Io_desc.frame = f; off = 4090; len = 100 } ]))

let test_desc_frames_dedup () =
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc pm in
  let desc =
    Memory.Io_desc.of_segs
      [
        { Memory.Io_desc.frame = f; off = 0; len = 8 };
        { Memory.Io_desc.frame = f; off = 16; len = 8 };
      ]
  in
  Alcotest.(check int) "dedup" 1 (List.length (Memory.Io_desc.frames desc))

let desc_roundtrip =
  QCheck.Test.make ~name:"io_desc scatter/gather roundtrip" ~count:100
    QCheck.(pair (int_bound 4000) (int_bound 95))
    (fun (len, off) ->
      let pm = fresh () in
      let f1 = Memory.Phys_mem.alloc pm and f2 = Memory.Phys_mem.alloc pm in
      let len = max 1 len in
      let seg1 = min len (4096 - off) in
      let segs =
        if seg1 = len then [ { Memory.Io_desc.frame = f1; off; len } ]
        else
          [
            { Memory.Io_desc.frame = f1; off; len = seg1 };
            { Memory.Io_desc.frame = f2; off = 0; len = len - seg1 };
          ]
      in
      let desc = Memory.Io_desc.of_segs segs in
      let payload = Bytes.init len (fun i -> Char.chr ((i * 31) land 0xFF)) in
      Memory.Io_desc.scatter desc ~off:0 ~src:payload ~src_off:0 ~len;
      Bytes.equal payload (Memory.Io_desc.gather desc ~off:0 ~len))

(* {1 Pageout: input-disabled policy} *)

let test_pageout_input_disabled () =
  let pm = fresh () in
  let daemon = Memory.Pageout.create () in
  let evicted = ref [] in
  Memory.Pageout.set_evict_hook daemon (fun f ->
      evicted := f.Memory.Frame.id :: !evicted;
      true);
  let with_input = Memory.Phys_mem.alloc pm in
  let with_output = Memory.Phys_mem.alloc pm in
  let plain = Memory.Phys_mem.alloc pm in
  let wired = Memory.Phys_mem.alloc pm in
  Memory.Phys_mem.ref_input pm with_input;
  Memory.Phys_mem.ref_output pm with_output;
  wired.Memory.Frame.wired <- 1;
  List.iter (Memory.Pageout.register daemon) [ with_input; with_output; plain; wired ];
  Alcotest.(check bool) "input-referenced not eligible" false
    (Memory.Pageout.eligible daemon with_input);
  Alcotest.(check bool) "output-referenced IS eligible" true
    (Memory.Pageout.eligible daemon with_output);
  Alcotest.(check bool) "wired not eligible" false
    (Memory.Pageout.eligible daemon wired);
  let n = Memory.Pageout.scan daemon ~target:10 in
  Alcotest.(check int) "two evicted" 2 n;
  Alcotest.(check bool) "output frame evicted" true
    (List.mem with_output.Memory.Frame.id !evicted);
  Alcotest.(check bool) "plain frame evicted" true
    (List.mem plain.Memory.Frame.id !evicted);
  Alcotest.(check bool) "input frame survived" true
    (not (List.mem with_input.Memory.Frame.id !evicted))

let test_pageout_unregister () =
  let pm = fresh () in
  let daemon = Memory.Pageout.create () in
  Memory.Pageout.set_evict_hook daemon (fun _ -> true);
  let f = Memory.Phys_mem.alloc pm in
  Memory.Pageout.register daemon f;
  Memory.Pageout.unregister daemon f;
  Alcotest.(check int) "nothing evicted" 0 (Memory.Pageout.scan daemon ~target:5)

let test_pageout_target () =
  let pm = fresh () in
  let daemon = Memory.Pageout.create () in
  Memory.Pageout.set_evict_hook daemon (fun _ -> true);
  List.iter (Memory.Pageout.register daemon) (Memory.Phys_mem.alloc_many pm 5);
  Alcotest.(check int) "respects target" 2 (Memory.Pageout.scan daemon ~target:2);
  Alcotest.(check int) "remaining" 3 (Memory.Pageout.scan daemon ~target:10)

(* {1 Backing store} *)

let test_backing_store () =
  let bs = Memory.Backing_store.create ~page_size:4096 in
  let page = Bytes.init 4096 (fun i -> Char.chr (i land 0xFF)) in
  let slot = Memory.Backing_store.page_out bs page in
  Alcotest.(check int) "one live slot" 1 (Memory.Backing_store.live_slots bs);
  Alcotest.(check bytes) "peek" page (Memory.Backing_store.peek bs slot);
  let dst = Bytes.create 4096 in
  Memory.Backing_store.page_in bs slot dst;
  Alcotest.(check bytes) "roundtrip" page dst;
  Alcotest.(check int) "slot freed" 0 (Memory.Backing_store.live_slots bs);
  Alcotest.check_raises "stale slot"
    (Invalid_argument "Backing_store: unknown or freed slot") (fun () ->
      ignore (Memory.Backing_store.peek bs slot))

let test_backing_store_wrong_size () =
  let bs = Memory.Backing_store.create ~page_size:4096 in
  Alcotest.check_raises "wrong size"
    (Invalid_argument "Backing_store.page_out: wrong page size") (fun () ->
      ignore (Memory.Backing_store.page_out bs (Bytes.create 100)))

let suite =
  [
    Alcotest.test_case "alloc/free" `Quick test_alloc_free;
    Alcotest.test_case "alloc zeroed" `Quick test_alloc_zeroed;
    Alcotest.test_case "exhaustion" `Quick test_exhaustion;
    Alcotest.test_case "double free raises" `Quick test_double_free_raises;
    Alcotest.test_case "I/O-deferred deallocation" `Quick test_deferred_deallocation;
    Alcotest.test_case "zombie adoption" `Quick test_adopt_zombie;
    Alcotest.test_case "alloc_many partial exhaustion" `Quick
      test_alloc_many_partial_exhaustion;
    Alcotest.test_case "alloc_zeroed after reuse" `Quick test_alloc_zeroed_after_reuse;
    Alcotest.test_case "untouched recycled frame" `Quick test_untouched_recycled_frame;
    Alcotest.test_case "create allocates no pages" `Quick test_create_allocates_no_pages;
    QCheck_alcotest.to_alcotest phys_mem_matches_model;
    Alcotest.test_case "buf_pool size classes" `Quick test_buf_pool_classes;
    Alcotest.test_case "buf_pool reuse" `Quick test_buf_pool_reuse;
    Alcotest.test_case "buf_pool poison" `Quick test_buf_pool_poison;
    Alcotest.test_case "unref without ref raises" `Quick test_unref_without_ref_raises;
    Alcotest.test_case "io_desc gather/scatter" `Quick test_desc_gather_scatter;
    Alcotest.test_case "io_desc bounds" `Quick test_desc_bounds;
    Alcotest.test_case "io_desc frame dedup" `Quick test_desc_frames_dedup;
    QCheck_alcotest.to_alcotest desc_roundtrip;
    Alcotest.test_case "input-disabled pageout" `Quick test_pageout_input_disabled;
    Alcotest.test_case "pageout unregister" `Quick test_pageout_unregister;
    Alcotest.test_case "pageout target" `Quick test_pageout_target;
    Alcotest.test_case "backing store" `Quick test_backing_store;
    Alcotest.test_case "backing store size check" `Quick test_backing_store_wrong_size;
  ]
