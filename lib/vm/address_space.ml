type t = {
  id : int;
  vm : Vm_sys.t;
  pt : Page_table.t;
  mutable region_list : Region.t list;  (* sorted by start_vpn *)
  (* Region-lookup fast path: a sorted array rebuilt lazily after any
     region_list mutation, searched by bisection, fronted by a last-hit
     cache (lookups are heavily clustered: iter_pages resolves the same
     region once per page). *)
  mutable region_arr : Region.t array;
  mutable arr_dirty : bool;
  mutable last_hit : Region.t option;
  moved_out_q : Region.t Queue.t;
  weak_q : Region.t Queue.t;
  mutable next_vpn : int;
}

let create vm =
  vm.Vm_sys.next_space_id <- vm.Vm_sys.next_space_id + 1;
  let t =
    {
      id = vm.Vm_sys.next_space_id;
      vm;
      pt = Page_table.create ();
      region_list = [];
      region_arr = [||];
      arr_dirty = false;
      last_hit = None;
      moved_out_q = Queue.create ();
      weak_q = Queue.create ();
      next_vpn = 16;  (* leave a null guard area *)
    }
  in
  Vm_sys.register_unmapper vm (fun frame ->
      List.iter (fun vpn -> Page_table.unmap t.pt ~vpn) (Page_table.vpns_of_frame t.pt frame));
  Vm_sys.register_space vm
    {
      Vm_sys.sv_id = t.id;
      sv_regions = (fun () -> t.region_list);
      sv_ptes =
        (fun () ->
          let acc = ref [] in
          Page_table.iter t.pt (fun ~vpn pte -> acc := (vpn, pte) :: !acc);
          !acc);
      sv_rmap_errors = (fun () -> Page_table.check_rmap t.pt);
    };
  t

let vm t = t.vm
let id t = t.id

(* Typed tracing: the scope lives on the VM system (installed by the
   host); [traced] short-circuits to a no-op while tracing is off. *)
let traced t f =
  match t.vm.Vm_sys.trace with
  | Some s when Simcore.Tracer.on s -> f s
  | _ -> ()

(* Counters also accumulate in count-only mode ([add_counter]
   self-guards), so they stay out of the [traced] event closures. *)
let count t name =
  match t.vm.Vm_sys.trace with
  | Some s -> Simcore.Tracer.add_counter s name
  | None -> ()
let page_size t = Vm_sys.page_size t.vm
let regions t = t.region_list

let vpn_of_addr t addr = addr / page_size t
let base_addr (r : Region.t) ~page_size = r.Region.start_vpn * page_size

(* {1 Region lookup} *)

let invalidate_lookup t =
  t.arr_dirty <- true;
  t.last_hit <- None

let region_of_vpn t vpn =
  match t.last_hit with
  | Some r when r.Region.valid && Region.contains_vpn r vpn -> Some r
  | _ ->
    if t.arr_dirty then begin
      t.region_arr <- Array.of_list t.region_list;
      t.arr_dirty <- false
    end;
    let arr = t.region_arr in
    (* Bisect for the region with the greatest start_vpn <= vpn; the list
       is sorted by construction (map_region/ensure_region allocate at
       monotonically increasing next_vpn). *)
    let lo = ref 0 and hi = ref (Array.length arr - 1) in
    let found = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let r = arr.(mid) in
      if r.Region.start_vpn <= vpn then begin
        found := Some r;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    (match !found with
    | Some r when Region.contains_vpn r vpn ->
      t.last_hit <- Some r;
      Some r
    | Some _ | None -> None)

(* {1 Regions} *)

let remove_region t (region : Region.t) =
  if not region.Region.valid then
    invalid_arg "Address_space.remove_region: region already removed";
  for i = 0 to region.Region.npages - 1 do
    Page_table.unmap t.pt ~vpn:(region.Region.start_vpn + i);
    Vm_sys.remove_page t.vm region.Region.obj i
  done;
  region.Region.valid <- false;
  t.region_list <- List.filter (fun r -> r != region) t.region_list;
  invalidate_lookup t

let map_region ?(state = Region.Unmovable) ?(pageable = true) ?(populate = true)
    t ~npages =
  if npages <= 0 then invalid_arg "Address_space.map_region: npages";
  let obj = Memory_object.create ~pageable () in
  let region = Region.make ~start_vpn:t.next_vpn ~npages ~state ~obj in
  t.next_vpn <- t.next_vpn + npages + 1 (* one-page guard gap *);
  t.region_list <- t.region_list @ [ region ];
  invalidate_lookup t;
  (if populate then
     try
       for i = 0 to npages - 1 do
         let frame = Vm_sys.alloc_pressured_zeroed t.vm in
         Vm_sys.insert_page t.vm obj i frame;
         Page_table.map t.pt ~vpn:(region.Region.start_vpn + i) ~frame
           ~prot:Prot.Read_write
       done
     with Memory.Phys_mem.Out_of_frames as e ->
       (* No half-populated region outlives the failure. *)
       remove_region t region;
       raise e);
  region

let find_region t ~vaddr = region_of_vpn t (vpn_of_addr t vaddr)

let region_of_addr t ~vaddr =
  match find_region t ~vaddr with
  | Some r -> r
  | None -> Vm_error.segfault "space %d: address %#x not in any region" t.id vaddr

(* Frames a read of [addr, addr+len) would still have to allocate:
   unmapped pages whose chain page is swapped out or absent (the two
   arms of [handle_read_fault] that call the allocator).  Pure — no
   faulting, no mapping, no allocation — so admission checks can price
   a copyin/reference walk before starting it under memory pressure. *)
let read_alloc_deficit t ~addr ~len =
  if len <= 0 then 0
  else begin
    let lo = vpn_of_addr t addr and hi = vpn_of_addr t (addr + len - 1) in
    let n = ref 0 in
    for vpn = lo to hi do
      match Page_table.find t.pt vpn with
      | Some _ -> ()
      | None -> (
        match region_of_vpn t vpn with
        | None -> ()
        | Some r -> (
          let idx = vpn - r.Region.start_vpn in
          match Memory_object.find_chain r.Region.obj idx with
          | Some (owner, _) -> (
            match Memory_object.find_local owner idx with
            | Some (Memory_object.Resident _) -> ()
            | Some (Memory_object.Swapped _) | None -> incr n)
          | None -> incr n))
    done;
    !n
  end

(* {1 Fault handling} *)

let recoverable (r : Region.t) =
  match r.Region.state with
  | Region.Unmovable | Region.Moved_in -> true
  | Region.Moving_in | Region.Moving_out | Region.Moved_out
  | Region.Weakly_moved_out -> false

let fault_region t vpn =
  match region_of_vpn t vpn with
  | None -> Vm_error.segfault "space %d: fault at vpn %d outside regions" t.id vpn
  | Some r when recoverable r -> r
  | Some r ->
    Vm_error.unrecoverable "space %d: fault at vpn %d in %s region" t.id vpn
      (Region.movability_name r.Region.state)

(* Allocating under pressure may trigger a pageout scan; pin the source
   frame for the duration so the scan cannot evict (and recycle) the very
   page being copied. *)
let alloc_for_copy t (src : Memory.Frame.t) =
  src.Memory.Frame.wired <- src.Memory.Frame.wired + 1;
  Fun.protect
    ~finally:(fun () -> src.Memory.Frame.wired <- src.Memory.Frame.wired - 1)
    (fun () -> Vm_sys.alloc_pressured t.vm)

(* Copy a chain page into the top object (conventional COW resolution). *)
let cow_copy t (region : Region.t) idx owner =
  let src = Vm_sys.materialize t.vm owner idx in
  let dst = alloc_for_copy t src in
  Memory.Frame.copy_contents ~src ~dst;
  Vm_sys.insert_page t.vm region.Region.obj idx dst;
  count t "cow_breaks";
  traced t (fun s ->
      Simcore.Tracer.instant s "cow.copy"
        ~args:
          [
            ("space", Simcore.Tracer.Int t.id);
            ("vpn", Simcore.Tracer.Int (region.Region.start_vpn + idx));
          ]);
  dst

let handle_read_fault t vpn =
  count t "faults";
  traced t (fun s ->
      Simcore.Tracer.instant s "fault.read"
        ~args:
          [
            ("space", Simcore.Tracer.Int t.id); ("vpn", Simcore.Tracer.Int vpn);
          ]);
  let region = fault_region t vpn in
  let idx = vpn - region.Region.start_vpn in
  let obj = region.Region.obj in
  match Memory_object.find_chain obj idx with
  | Some (owner, _) when owner == obj ->
    let frame = Vm_sys.materialize t.vm obj idx in
    Page_table.map t.pt ~vpn ~frame ~prot:Prot.Read_write;
    frame
  | Some (owner, _) ->
    (* Shared with the shadow chain: map read-only, copy on write later. *)
    let frame = Vm_sys.materialize t.vm owner idx in
    Page_table.map t.pt ~vpn ~frame ~prot:Prot.Read_only;
    frame
  | None ->
    let frame = Vm_sys.alloc_pressured_zeroed t.vm in
    Vm_sys.insert_page t.vm obj idx frame;
    Page_table.map t.pt ~vpn ~frame ~prot:Prot.Read_write;
    frame

let handle_write_fault t vpn =
  count t "faults";
  traced t (fun s ->
      Simcore.Tracer.instant s "fault.write"
        ~args:
          [
            ("space", Simcore.Tracer.Int t.id); ("vpn", Simcore.Tracer.Int vpn);
          ]);
  let region = fault_region t vpn in
  let idx = vpn - region.Region.start_vpn in
  let obj = region.Region.obj in
  match Page_table.find t.pt vpn with
  | Some pte when pte.Page_table.prot = Prot.Read_only -> begin
    match Memory_object.find_local obj idx with
    | Some (Memory_object.Resident frame) when frame == pte.Page_table.frame ->
      (* Page present in the top object: this is the TCOW case. *)
      if frame.Memory.Frame.output_refs > 0 then begin
        count t "cow_breaks";
        traced t (fun s ->
            Simcore.Tracer.instant s "tcow.break"
              ~args:
                [
                  ("space", Simcore.Tracer.Int t.id);
                  ("vpn", Simcore.Tracer.Int vpn);
                ]);
        let fresh = alloc_for_copy t frame in
        Memory.Frame.copy_contents ~src:frame ~dst:fresh;
        let displaced = Vm_sys.replace_page t.vm obj idx fresh in
        (* The displaced frame keeps carrying the pending output; it is
           reclaimed when the output unreferences it.  Any active wiring
           that pinned it is logged on the region and will unwire the
           displaced frame itself, not the replacement. *)
        Memory.Phys_mem.deallocate t.vm.Vm_sys.phys displaced;
        Page_table.map t.pt ~vpn ~frame:fresh ~prot:Prot.Read_write;
        fresh
      end
      else begin
        (* Output already completed: just re-enable writing, no copy. *)
        pte.Page_table.prot <- Prot.Read_write;
        pte.Page_table.frame
      end
    | Some _ | None ->
      (* Page mapped from the shadow chain: conventional COW fault. *)
      let owner =
        match Memory_object.find_chain obj idx with
        | Some (owner, _) -> owner
        | None -> assert false
      in
      let fresh = cow_copy t region idx owner in
      Page_table.map t.pt ~vpn ~frame:fresh ~prot:Prot.Read_write;
      fresh
  end
  | Some pte when pte.Page_table.prot = Prot.No_access ->
    Vm_error.unrecoverable "space %d: write to invalidated page at vpn %d" t.id vpn
  | Some pte -> pte.Page_table.frame (* already writable: no fault *)
  | None -> begin
    match Memory_object.find_chain obj idx with
    | Some (owner, _) when owner == obj ->
      let frame = Vm_sys.materialize t.vm obj idx in
      Page_table.map t.pt ~vpn ~frame ~prot:Prot.Read_write;
      frame
    | Some (owner, _) ->
      let fresh = cow_copy t region idx owner in
      Page_table.map t.pt ~vpn ~frame:fresh ~prot:Prot.Read_write;
      fresh
    | None ->
      let frame = Vm_sys.alloc_pressured_zeroed t.vm in
      Vm_sys.insert_page t.vm obj idx frame;
      Page_table.map t.pt ~vpn ~frame ~prot:Prot.Read_write;
      frame
  end

let resolve_read t ~vpn =
  match Page_table.find t.pt vpn with
  | Some pte when Prot.allows_read pte.Page_table.prot -> pte.Page_table.frame
  | Some _ ->
    (* No_access: either hidden region or invalidated page. *)
    ignore (fault_region t vpn);
    Vm_error.unrecoverable "space %d: read of invalidated page at vpn %d" t.id vpn
  | None -> handle_read_fault t vpn

let resolve_write t ~vpn =
  match Page_table.find t.pt vpn with
  | Some pte when Prot.allows_write pte.Page_table.prot -> pte.Page_table.frame
  | Some _ | None -> handle_write_fault t vpn

let prot_of t ~vpn =
  match Page_table.find t.pt vpn with
  | Some pte -> Some pte.Page_table.prot
  | None -> None

(* {1 Application loads and stores} *)

let iter_pages t ~addr ~len f =
  if len < 0 then invalid_arg "Address_space: negative length";
  let psize = page_size t in
  let cursor = ref addr and remaining = ref len and done_ = ref 0 in
  while !remaining > 0 do
    let vpn = !cursor / psize and off = !cursor mod psize in
    let n = min !remaining (psize - off) in
    f ~vpn ~off ~buf_off:!done_ ~len:n;
    cursor := !cursor + n;
    remaining := !remaining - n;
    done_ := !done_ + n
  done

let read t ~addr ~len =
  let out = Bytes.create len in
  iter_pages t ~addr ~len (fun ~vpn ~off ~buf_off ~len ->
      let frame = resolve_read t ~vpn in
      Memory.Frame.blit_out frame ~src_off:off ~dst:out ~dst_off:buf_off ~len);
  out

let iter_write t ~addr ~len f =
  iter_pages t ~addr ~len (fun ~vpn ~off ~buf_off ~len ->
      f ~buf_off (resolve_write t ~vpn) ~off ~len)

let write t ~addr src =
  iter_write t ~addr ~len:(Bytes.length src) (fun ~buf_off frame ~off ~len ->
      Memory.Frame.blit_in frame ~dst_off:off ~src ~src_off:buf_off ~len)

let write_iov t ~addr iov =
  let cursor = ref addr in
  Memory.Iovec.iter_slices iov (fun src ~off:src_base ~len:slice_len ->
      iter_pages t ~addr:!cursor ~len:slice_len (fun ~vpn ~off ~buf_off ~len ->
          let frame = resolve_write t ~vpn in
          Memory.Frame.blit_in frame ~dst_off:off ~src
            ~src_off:(src_base + buf_off) ~len);
      cursor := !cursor + slice_len)

let iter_read t ~addr ~len f =
  iter_pages t ~addr ~len (fun ~vpn ~off ~buf_off ~len ->
      let frame = resolve_read t ~vpn in
      f ~buf_off frame ~off ~len)

(* {1 Kernel mechanisms} *)

let iter_region_vpns (region : Region.t) f =
  for i = 0 to region.Region.npages - 1 do
    f (region.Region.start_vpn + i)
  done

let page_range_check (region : Region.t) ~first ~pages =
  if first < 0 || pages < 0 || first + pages > region.Region.npages then
    invalid_arg "Address_space: page range outside region"

let make_readonly t region ~first ~pages =
  page_range_check region ~first ~pages;
  for i = first to first + pages - 1 do
    let vpn = region.Region.start_vpn + i in
    match Page_table.find t.pt vpn with
    | Some pte when pte.Page_table.prot = Prot.Read_write ->
      pte.Page_table.prot <- Prot.Read_only
    | Some _ | None -> ()
  done

let invalidate t region ~first ~pages =
  page_range_check region ~first ~pages;
  traced t (fun s ->
      Simcore.Tracer.instant s "region.hide"
        ~args:
          [
            ("space", Simcore.Tracer.Int t.id);
            ("vpn", Simcore.Tracer.Int (region.Region.start_vpn + first));
            ("pages", Simcore.Tracer.Int pages);
          ]);
  for i = first to first + pages - 1 do
    let vpn = region.Region.start_vpn + i in
    match Page_table.find t.pt vpn with
    | Some pte -> pte.Page_table.prot <- Prot.No_access
    | None -> ()
  done

let reinstate t region =
  traced t (fun s ->
      Simcore.Tracer.instant s "region.reinstate"
        ~args:
          [
            ("space", Simcore.Tracer.Int t.id);
            ("vpn", Simcore.Tracer.Int region.Region.start_vpn);
            ("pages", Simcore.Tracer.Int region.Region.npages);
          ]);
  iter_region_vpns region (fun vpn ->
      match Page_table.find t.pt vpn with
      | Some pte -> pte.Page_table.prot <- Prot.Read_write
      | None -> ())

let resident_frames (region : Region.t) =
  let acc = ref [] in
  for i = region.Region.npages - 1 downto 0 do
    match Memory_object.find_local region.Region.obj i with
    | Some (Memory_object.Resident frame) -> acc := frame :: !acc
    | Some (Memory_object.Swapped _) | None -> ()
  done;
  !acc

(* Wiring pins the frames backing a virtual page range.  Residency can
   change while a wiring is active — COW and TCOW breaks replace the
   resident frame, faults materialize swapped or chain-shared pages
   into the top object — so each wiring logs the exact frame set it
   pinned on the region, and unwire decrements precisely that set.  A
   residency snapshot taken at unwire time would decrement frames that
   were never wired (and strand the counts of frames displaced
   mid-flight). *)

let log_wiring (region : Region.t) key frames =
  region.Region.wire_log <- (fst key, snd key, frames) :: region.Region.wire_log

let pop_wiring (region : Region.t) key =
  let rec go acc = function
    | [] -> None
    | (f, p, frames) :: rest when (f, p) = key ->
      region.Region.wire_log <- List.rev_append acc rest;
      Some frames
    | e :: rest -> go (e :: acc) rest
  in
  go [] region.Region.wire_log

let wire_frames t frames =
  List.iter
    (fun (frame : Memory.Frame.t) ->
      frame.Memory.Frame.wired <- frame.Memory.Frame.wired + 1;
      Memory.Pageout.unregister t.vm.Vm_sys.pageout frame)
    frames

let unwire_frames t (region : Region.t) frames =
  List.iter
    (fun (frame : Memory.Frame.t) ->
      frame.Memory.Frame.wired <- frame.Memory.Frame.wired - 1;
      if frame.Memory.Frame.wired = 0 && region.Region.obj.Memory_object.pageable
      then Memory.Pageout.register t.vm.Vm_sys.pageout frame)
    frames

(* The whole-region wiring's log key; range wirings use (first, pages). *)
let whole_region = (-1, -1)

let wire t (region : Region.t) =
  region.Region.wired <- region.Region.wired + 1;
  let frames = resident_frames region in
  log_wiring region whole_region frames;
  wire_frames t frames

let unwire t (region : Region.t) =
  if region.Region.wired <= 0 then invalid_arg "Address_space.unwire: not wired";
  region.Region.wired <- region.Region.wired - 1;
  match pop_wiring region whole_region with
  | Some frames -> unwire_frames t region frames
  | None -> invalid_arg "Address_space.unwire: no whole-region wiring active"

let range_frames (region : Region.t) ~first ~pages =
  page_range_check region ~first ~pages;
  let acc = ref [] in
  for i = first + pages - 1 downto first do
    match Memory_object.find_local region.Region.obj i with
    | Some (Memory_object.Resident frame) -> acc := frame :: !acc
    | Some (Memory_object.Swapped _) | None -> ()
  done;
  !acc

let wire_range t (region : Region.t) ~first ~pages =
  region.Region.wired <- region.Region.wired + 1;
  let frames = range_frames region ~first ~pages in
  log_wiring region (first, pages) frames;
  wire_frames t frames

let unwire_range t (region : Region.t) ~first ~pages =
  if region.Region.wired <= 0 then invalid_arg "Address_space.unwire_range: not wired";
  region.Region.wired <- region.Region.wired - 1;
  match pop_wiring region (first, pages) with
  | Some frames -> unwire_frames t region frames
  | None ->
    invalid_arg "Address_space.unwire_range: no matching range wiring active"

let swap_into_region t (region : Region.t) ~page frame =
  page_range_check region ~first:page ~pages:1;
  match Memory_object.find_local region.Region.obj page with
  | Some (Memory_object.Resident _) ->
    let displaced = Vm_sys.replace_page t.vm region.Region.obj page frame in
    Page_table.map t.pt ~vpn:(region.Region.start_vpn + page) ~frame
      ~prot:Prot.Read_write;
    Some displaced
  | Some (Memory_object.Swapped slot) ->
    (* The old page was paged out; its stale contents are dead. *)
    Memory.Backing_store.free t.vm.Vm_sys.backing slot;
    Vm_sys.insert_page t.vm region.Region.obj page frame;
    Page_table.map t.pt ~vpn:(region.Region.start_vpn + page) ~frame
      ~prot:Prot.Read_write;
    None
  | None ->
    Vm_sys.insert_page t.vm region.Region.obj page frame;
    Page_table.map t.pt ~vpn:(region.Region.start_vpn + page) ~frame
      ~prot:Prot.Read_write;
    None

let map_object_pages t (region : Region.t) =
  for i = 0 to region.Region.npages - 1 do
    match Memory_object.find_local region.Region.obj i with
    | Some (Memory_object.Resident frame) ->
      Page_table.map t.pt ~vpn:(region.Region.start_vpn + i) ~frame
        ~prot:Prot.Read_write
    | Some (Memory_object.Swapped _) | None -> ()
  done

let ensure_region t (region : Region.t) ~frames =
  if region.Region.valid then region
  else begin
    (* The application removed the region while input was pending; the
       frames were only zombie-deallocated thanks to I/O-deferred page
       deallocation.  Adopt them into a fresh region. *)
    let phys = t.vm.Vm_sys.phys in
    let obj = Memory_object.create ~pageable:region.Region.obj.Memory_object.pageable () in
    let fresh =
      Region.make ~start_vpn:t.next_vpn ~npages:region.Region.npages
        ~state:region.Region.state ~obj
    in
    t.next_vpn <- t.next_vpn + fresh.Region.npages + 1;
    t.region_list <- t.region_list @ [ fresh ];
    invalidate_lookup t;
    List.iteri
      (fun i frame ->
        Memory.Phys_mem.adopt phys frame;
        Vm_sys.insert_page t.vm obj i frame;
        Page_table.map t.pt ~vpn:(fresh.Region.start_vpn + i) ~frame
          ~prot:Prot.Read_write)
      frames;
    fresh
  end

(* {1 Fork-style cloning with input-disabled COW} *)

let clone_cow t =
  let child = create t.vm in
  child.next_vpn <- t.next_vpn;
  let clone_region (r : Region.t) =
    if Memory_object.chain_input_refs r.Region.obj > 0 then begin
      (* Input-disabled COW: pending DMA input would bypass write faults,
         so share semantics would leak through.  Copy physically. *)
      let obj = Memory_object.create ~pageable:r.Region.obj.Memory_object.pageable () in
      let fresh = Region.make ~start_vpn:r.Region.start_vpn ~npages:r.Region.npages
          ~state:r.Region.state ~obj
      in
      for i = 0 to r.Region.npages - 1 do
        match Memory_object.find_chain r.Region.obj i with
        | Some (owner, _) ->
          let src = Vm_sys.materialize t.vm owner i in
          let dst = alloc_for_copy t src in
          Memory.Frame.copy_contents ~src ~dst;
          Vm_sys.insert_page child.vm obj i dst;
          Page_table.map child.pt ~vpn:(fresh.Region.start_vpn + i) ~frame:dst
            ~prot:Prot.Read_write
        | None -> ()
      done;
      fresh
    end
    else begin
      (* Conventional COW: both sides get shadows over the old object and
         drop to read-only mappings of the shared pages. *)
      let original = r.Region.obj in
      let parent_shadow = Memory_object.shadow_of original in
      let child_shadow = Memory_object.shadow_of original in
      r.Region.obj <- parent_shadow;
      let fresh = Region.make ~start_vpn:r.Region.start_vpn ~npages:r.Region.npages
          ~state:r.Region.state ~obj:child_shadow
      in
      for i = 0 to r.Region.npages - 1 do
        let vpn = r.Region.start_vpn + i in
        match Memory_object.find_local original i with
        | Some (Memory_object.Resident frame) ->
          (match Page_table.find t.pt vpn with
          | Some pte -> pte.Page_table.prot <- Prot.Read_only
          | None -> ());
          Page_table.map child.pt ~vpn ~frame ~prot:Prot.Read_only
        | Some (Memory_object.Swapped _) | None -> ()
      done;
      fresh
    end
  in
  child.region_list <- List.map clone_region t.region_list;
  invalidate_lookup child;
  child

(* {1 Region caching} *)

let cache_region t (region : Region.t) =
  match region.Region.state with
  | Region.Moved_out -> Queue.add region t.moved_out_q
  | Region.Weakly_moved_out -> Queue.add region t.weak_q
  | Region.Unmovable | Region.Moved_in | Region.Moving_in | Region.Moving_out ->
    invalid_arg "Address_space.cache_region: region not in a cached state"

let dequeue_cached t ~kind ~npages =
  let q =
    match kind with
    | Region.Moved_out -> t.moved_out_q
    | Region.Weakly_moved_out -> t.weak_q
    | Region.Unmovable | Region.Moved_in | Region.Moving_in | Region.Moving_out ->
      invalid_arg "Address_space.dequeue_cached: not a cached kind"
  in
  (* Skip removed regions and regions of the wrong size; wrong-size live
     regions are requeued behind. *)
  let rec hunt budget requeue =
    if budget = 0 then None
    else
      match Queue.take_opt q with
      | None -> None
      | Some r when not r.Region.valid -> hunt (budget - 1) requeue
      | Some r when r.Region.npages = npages && r.Region.state = kind -> Some r
      | Some r ->
        Queue.add r requeue;
        hunt (budget - 1) requeue
  in
  let requeue = Queue.create () in
  let found = hunt (Queue.length q) requeue in
  Queue.transfer requeue q;
  found

let destroy t =
  List.iter (fun r -> remove_region t r) (List.filter (fun (r : Region.t) -> r.Region.valid) t.region_list)
