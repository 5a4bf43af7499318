type space_view = {
  sv_id : int;
  sv_regions : unit -> Region.t list;
  sv_ptes : unit -> (int * Page_table.pte) list;
  sv_rmap_errors : unit -> string list;
}

type io_dir = Io_input | Io_output

type io_view = {
  io_id : int;
  io_dir : io_dir;
  io_frames : Memory.Frame.t list;
  io_objects : (Memory_object.t * int) list;
}

type t = {
  spec : Machine.Machine_spec.t;
  phys : Memory.Phys_mem.t;
  pageout : Memory.Pageout.t;
  backing : Memory.Backing_store.t;
  frame_owner : (int, Memory_object.t * int) Hashtbl.t;
  mutable unmappers : (Memory.Frame.t -> unit) list;
  mutable spaces : space_view list;
  io_registry : (int, io_view) Hashtbl.t;
  mutable next_io_id : int;
  mutable next_space_id : int;
  reserve_target : int;
  mutable reserve : Memory.Frame.t list;
  mutable trace : Simcore.Tracer.scope option;
}

let page_size t = Memory.Phys_mem.page_size t.phys
let set_trace_scope t scope = t.trace <- Some scope
let register_unmapper t f = t.unmappers <- f :: t.unmappers

let register_space t view = t.spaces <- view :: t.spaces
let space_views t = t.spaces

let register_io t ~dir ~frames ~objects =
  let id = t.next_io_id in
  t.next_io_id <- id + 1;
  Hashtbl.replace t.io_registry id
    { io_id = id; io_dir = dir; io_frames = frames; io_objects = objects };
  id

let forget_io t id = Hashtbl.remove t.io_registry id
let io_views t = Hashtbl.fold (fun _ v acc -> v :: acc) t.io_registry []

let insert_page t obj idx (frame : Memory.Frame.t) =
  Memory_object.set_slot obj idx (Memory_object.Resident frame);
  Hashtbl.replace t.frame_owner frame.Memory.Frame.id (obj, idx);
  if obj.Memory_object.pageable then Memory.Pageout.register t.pageout frame

let detach_frame t (frame : Memory.Frame.t) =
  Hashtbl.remove t.frame_owner frame.Memory.Frame.id;
  Memory.Pageout.unregister t.pageout frame

let remove_page t obj idx =
  match Memory_object.find_local obj idx with
  | None -> ()
  | Some (Memory_object.Resident frame) ->
    detach_frame t frame;
    Memory_object.remove_slot obj idx;
    Memory.Phys_mem.deallocate t.phys frame
  | Some (Memory_object.Swapped slot) ->
    Memory.Backing_store.free t.backing slot;
    Memory_object.remove_slot obj idx

let replace_page t obj idx new_frame =
  match Memory_object.find_local obj idx with
  | Some (Memory_object.Resident old_frame) ->
    detach_frame t old_frame;
    insert_page t obj idx new_frame;
    old_frame
  | Some (Memory_object.Swapped _) | None ->
    invalid_arg "Vm_sys.replace_page: page not resident"

(* The emergency reserve backs fault handling the way a pager's min-free
   watermark does: stocked at boot, untouchable by admission checks (it
   is off the free list, so [Phys_mem.free_frames] never counts it), and
   spent only when a fault finds the free list empty with nothing
   evictable.  Each page materialized from the reserve is itself
   evictable, so single-page fault streams stay sustainable under total
   exhaustion.  The reserve restocks from the free list as memory
   drains. *)
let restock_reserve t =
  let missing = t.reserve_target - List.length t.reserve in
  if missing > 0 then begin
    let spare = Memory.Phys_mem.free_frames t.phys - 1 in
    for _ = 1 to min missing spare do
      t.reserve <- Memory.Phys_mem.alloc t.phys :: t.reserve
    done
  end

let reserve_frames t = t.reserve

let take_reserve t =
  match t.reserve with
  | [] -> raise Memory.Phys_mem.Out_of_frames
  | frame :: rest ->
    t.reserve <- rest;
    (match t.trace with
    | None -> ()
    | Some s ->
      if Simcore.Tracer.on s then
        Simcore.Tracer.instant s "mem.emergency"
          ~args:
            [
              ("frame", Simcore.Tracer.Int frame.Memory.Frame.id);
              ("left", Simcore.Tracer.Int (List.length rest));
            ];
      Simcore.Tracer.add_counter s "emergency_allocs");
    frame

let alloc_pressured t =
  restock_reserve t;
  if Memory.Phys_mem.free_frames t.phys = 0 then
    ignore (Memory.Pageout.scan t.pageout ~target:16);
  match Memory.Phys_mem.alloc t.phys with
  | frame -> frame
  | exception Memory.Phys_mem.Out_of_frames -> take_reserve t

let alloc_pressured_zeroed t =
  restock_reserve t;
  if Memory.Phys_mem.free_frames t.phys = 0 then
    ignore (Memory.Pageout.scan t.pageout ~target:16);
  (* Phys_mem skips the zero fill for frames it knows are still zero. *)
  match Memory.Phys_mem.alloc_zeroed t.phys with
  | frame -> frame
  | exception Memory.Phys_mem.Out_of_frames ->
    let frame = take_reserve t in
    Memory.Frame.fill frame '\x00';
    frame

let materialize t obj idx =
  match Memory_object.find_local obj idx with
  | Some (Memory_object.Resident frame) -> frame
  | Some (Memory_object.Swapped slot) ->
    let frame = alloc_pressured t in
    Memory.Backing_store.page_in t.backing slot (Memory.Frame.data frame);
    insert_page t obj idx frame;
    frame
  | None -> invalid_arg "Vm_sys.materialize: object has no such page"

(* The pageout daemon's hook: copy the frame to backing store, unmap it
   everywhere, mark its object slot swapped and release it; [false] if
   it belongs to no object. *)
let evict_frame t (frame : Memory.Frame.t) =
  match Hashtbl.find_opt t.frame_owner frame.Memory.Frame.id with
  | None -> false
  | Some (obj, idx) ->
    let slot = Memory.Backing_store.page_out t.backing (Memory.Frame.data frame) in
    List.iter (fun unmap -> unmap frame) t.unmappers;
    Memory_object.set_slot obj idx (Memory_object.Swapped slot);
    Hashtbl.remove t.frame_owner frame.Memory.Frame.id;
    Memory.Phys_mem.deallocate t.phys frame;
    (match t.trace with
    | None -> ()
    | Some s ->
      if Simcore.Tracer.on s then
        Simcore.Tracer.instant s "pageout.evict"
          ~args:[ ("frame", Simcore.Tracer.Int frame.Memory.Frame.id) ];
      Simcore.Tracer.add_counter s "pageouts");
    true

let create spec =
  let t =
    {
      spec;
      phys = Memory.Phys_mem.create spec;
      pageout = Memory.Pageout.create ();
      backing = Memory.Backing_store.create ~page_size:spec.Machine.Machine_spec.page_size;
      frame_owner = Hashtbl.create 256;
      unmappers = [];
      spaces = [];
      io_registry = Hashtbl.create 32;
      next_io_id = 0;
      next_space_id = 0;
      reserve_target = 8;
      reserve = [];
      trace = None;
    }
  in
  Memory.Pageout.set_evict_hook t.pageout (evict_frame t);
  restock_reserve t;
  t

let run_pageout t ~target = Memory.Pageout.scan t.pageout ~target
