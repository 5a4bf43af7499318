type direction = For_input | For_output

type handle = {
  desc : Memory.Io_desc.t;
  frames : Memory.Frame.t list;
  objects : (Memory_object.t * int) list;
  direction : direction;
  space : Address_space.t;
  registry_id : int;
  mutable active : bool;
}

(* Enter the handle into the VM system's in-flight I/O registry so the
   invariant checker can audit reference counts and descriptor safety. *)
let registered space direction ~frames ~objects =
  Vm_sys.register_io (Address_space.vm space)
    ~dir:
      (match direction with
      | For_input -> Vm_sys.Io_input
      | For_output -> Vm_sys.Io_output)
    ~frames ~objects

let reference space ~addr ~len direction =
  let psize = Address_space.page_size space in
  let phys = (Address_space.vm space).Vm_sys.phys in
  let segs = ref [] and frames = ref [] and objects = ref [] in
  let note_object obj =
    match List.assq_opt obj !objects with
    | Some _ ->
      objects := List.map (fun (o, n) -> if o == obj then (o, n + 1) else (o, n)) !objects
    | None -> objects := (obj, 1) :: !objects
  in
  let cursor = ref addr and remaining = ref len in
  (try
     while !remaining > 0 do
       let vpn = !cursor / psize and off = !cursor mod psize in
       let n = min !remaining (psize - off) in
       let frame =
         match direction with
         | For_output -> Address_space.resolve_read space ~vpn
         | For_input -> Address_space.resolve_write space ~vpn
       in
       (match direction with
       | For_output -> Memory.Phys_mem.ref_output phys frame
       | For_input ->
         Memory.Phys_mem.ref_input phys frame;
         let region = Address_space.region_of_addr space ~vaddr:!cursor in
         let obj = region.Region.obj in
         obj.Memory_object.input_refs <- obj.Memory_object.input_refs + 1;
         note_object obj);
       segs := { Memory.Io_desc.frame; off; len = n } :: !segs;
       frames := frame :: !frames;
       cursor := !cursor + n;
       remaining := !remaining - n
     done
   with e ->
     (* A walk that fails partway (no frame to fault a page in, a bad
        address) drops the references it took before re-raising, so
        the caller sees no half-referenced buffer. *)
     List.iter
       (fun frame ->
         match direction with
         | For_output -> Memory.Phys_mem.unref_output phys frame
         | For_input -> Memory.Phys_mem.unref_input phys frame)
       !frames;
     List.iter
       (fun (obj, n) ->
         obj.Memory_object.input_refs <- obj.Memory_object.input_refs - n)
       !objects;
     raise e);
  let frames = List.rev !frames in
  {
    desc = Memory.Io_desc.of_segs (List.rev !segs);
    frames;
    objects = !objects;
    direction;
    space;
    registry_id = registered space direction ~frames ~objects:!objects;
    active = true;
  }

let reference_region space (region : Region.t) ~len direction =
  let psize = Address_space.page_size space in
  let vm = Address_space.vm space in
  let phys = vm.Vm_sys.phys in
  let npages = (len + psize - 1) / psize in
  if npages > region.Region.npages then
    invalid_arg "Page_ref.reference_region: length exceeds region";
  let obj = region.Region.obj in
  let segs = ref [] and frames = ref [] in
  for i = 0 to npages - 1 do
    let frame = Vm_sys.materialize vm obj i in
    (match direction with
    | For_output -> Memory.Phys_mem.ref_output phys frame
    | For_input -> Memory.Phys_mem.ref_input phys frame);
    let seg_len = min psize (len - (i * psize)) in
    segs := { Memory.Io_desc.frame; off = 0; len = seg_len } :: !segs;
    frames := frame :: !frames
  done;
  let objects =
    match direction with
    | For_input ->
      obj.Memory_object.input_refs <- obj.Memory_object.input_refs + npages;
      [ (obj, npages) ]
    | For_output -> []
  in
  let frames = List.rev !frames in
  {
    desc = Memory.Io_desc.of_segs (List.rev !segs);
    frames;
    objects;
    direction;
    space;
    registry_id = registered space direction ~frames ~objects;
    active = true;
  }

let unreference handle =
  if not handle.active then invalid_arg "Page_ref.unreference: already dropped";
  handle.active <- false;
  Vm_sys.forget_io (Address_space.vm handle.space) handle.registry_id;
  let phys = (Address_space.vm handle.space).Vm_sys.phys in
  List.iter
    (fun frame ->
      match handle.direction with
      | For_output -> Memory.Phys_mem.unref_output phys frame
      | For_input -> Memory.Phys_mem.unref_input phys frame)
    handle.frames;
  List.iter
    (fun (obj, n) -> obj.Memory_object.input_refs <- obj.Memory_object.input_refs - n)
    handle.objects

let pages handle = List.length handle.frames
