(* Frames are born on first touch.  Ids at or above [fresh] have never
   been handed out, and [take_free] serves them in id order before any
   recycled id; [free] holds only recycled ids, FIFO.  This is the order
   a queue pre-filled with every id would give.  A frame's record is
   created at its first hand-out or lookup ([missing] holds its slot
   until then), and its page at the first access to its bytes.  The
   table itself grows to cover the highest id handed out or looked up.

   A block ([alloc_block]) hands out a run of never-handed-out ids
   without creating their records.  Every other hand-out creates its
   record, so an id below [fresh] whose slot is still [missing] belongs
   to a block: its record is born [Allocated], and poisoned if its block
   was handed out under [debug_poison]. *)
type t = {
  mutable frames : Frame.t array;
  total : int;
  mutable fresh : int;
  free : int Queue.t;
  page_size : int;
  mutable zombies : int;
  mutable poisoned : (int * int) list; (* [lo, hi) blocks handed out poisoned *)
  mutable trace : Simcore.Tracer.scope option;
}

let missing = Frame.make ~id:(-1) ~size:0

let traced t f =
  match t.trace with
  | Some s when Simcore.Tracer.on s -> f s
  | _ -> ()

(* Counters also accumulate in count-only mode ([add_counter]
   self-guards), so they stay out of the [traced] event closures. *)
let count ?n t name =
  match t.trace with
  | Some s -> Simcore.Tracer.add_counter s ?n name
  | None -> ()

exception Out_of_frames

let create spec =
  {
    frames = [||];
    total = Machine.Machine_spec.frame_count spec;
    fresh = 0;
    free = Queue.create ();
    page_size = spec.Machine.Machine_spec.page_size;
    zombies = 0;
    poisoned = [];
    trace = None;
  }

let page_size t = t.page_size
let set_trace_scope t scope = t.trace <- Some scope
let total_frames t = t.total
let free_frames t = t.total - t.fresh + Queue.length t.free

let grow t id =
  let len = ref (Stdlib.max 64 (Array.length t.frames)) in
  while !len <= id do
    len := 2 * !len
  done;
  let frames = Array.make (Stdlib.min !len t.total) missing in
  Array.blit t.frames 0 frames 0 (Array.length t.frames);
  t.frames <- frames

(* The state [alloc] would have left a block frame in at hand-out. *)
let hand_out_in_block frame ~poison =
  frame.Frame.state <- Frame.Allocated;
  frame.Frame.known_zero <- false;
  if poison then Frame.fill frame '\xAA'

let frame_by_id t id =
  if id < 0 || id >= t.total then invalid_arg "Phys_mem.frame_by_id";
  if id >= Array.length t.frames then grow t id;
  let frame = t.frames.(id) in
  if frame != missing then frame
  else begin
    let frame = Frame.make ~id ~size:t.page_size in
    if id < t.fresh then
      hand_out_in_block frame
        ~poison:(List.exists (fun (lo, hi) -> lo <= id && id < hi) t.poisoned);
    t.frames.(id) <- frame;
    frame
  end

(* Debug switch: poison freshly allocated frames with 0xAA so consumers
   that rely on uninitialized frame contents trip byte-correctness
   checks.  Off by default — the fuzzer and the poisoning tests turn it
   on — so the common [alloc] is O(1) instead of O(page_size). *)
let debug_poison = ref false

let take_free t =
  let frame =
    if t.fresh < t.total then begin
      (* Looked up before [fresh] moves past it, so it is born [Free]. *)
      let frame = frame_by_id t t.fresh in
      t.fresh <- t.fresh + 1;
      frame
    end
    else
      match Queue.take_opt t.free with
      | None -> raise Out_of_frames
      | Some id -> frame_by_id t id
  in
  assert (frame.Frame.state = Frame.Free);
  frame.Frame.state <- Frame.Allocated;
  count t "frame_allocs";
  frame

let alloc t =
  let frame = take_free t in
  if !debug_poison then Frame.fill frame '\xAA';
  frame.Frame.known_zero <- false;
  frame

let alloc_zeroed t =
  let frame = take_free t in
  (* Frames whose contents are provably zero (never handed out since
     [create]) skip the O(page_size) refill. *)
  if not frame.Frame.known_zero then Frame.fill frame '\x00';
  frame.Frame.known_zero <- false;
  frame

let release t (frame : Frame.t) =
  frame.Frame.state <- Frame.Free;
  frame.Frame.pageable <- false;
  frame.Frame.wired <- 0;
  Queue.add frame.Frame.id t.free;
  count t "frame_frees"

let alloc_many t n =
  let rec take acc k =
    if k = 0 then List.rev acc
    else
      match alloc t with
      | frame -> take (frame :: acc) (k - 1)
      | exception Out_of_frames ->
        (* Don't leak the partial batch: hand every frame already taken
           back to the free list before reporting exhaustion. *)
        List.iter (fun f -> release t f) acc;
        raise Out_of_frames
  in
  take [] n

(* Chaos switch for the invariant checker: pretend I/O-deferred page
   deallocation was never implemented, freeing frames devices still
   reference.  The io-desc-safety invariant must catch this. *)
let skip_deferred_dealloc = ref false

let deallocate t (frame : Frame.t) =
  match frame.Frame.state with
  | Frame.Free -> invalid_arg "Phys_mem.deallocate: frame already free"
  | Frame.Zombie -> invalid_arg "Phys_mem.deallocate: frame already a zombie"
  | Frame.Allocated ->
    if Frame.io_referenced frame && not !skip_deferred_dealloc then begin
      frame.Frame.state <- Frame.Zombie;
      t.zombies <- t.zombies + 1;
      count t "deferred_deallocs";
      traced t (fun s ->
          Simcore.Tracer.instant s "frame.deferred_dealloc"
            ~args:[ ("frame", Simcore.Tracer.Int frame.Frame.id) ])
    end
    else release t frame

let ref_input _t (frame : Frame.t) = frame.Frame.input_refs <- frame.Frame.input_refs + 1
let ref_output _t (frame : Frame.t) = frame.Frame.output_refs <- frame.Frame.output_refs + 1

let reclaim_if_due t (frame : Frame.t) =
  if frame.Frame.state = Frame.Zombie && not (Frame.io_referenced frame) then begin
    t.zombies <- t.zombies - 1;
    release t frame
  end

let unref_input t (frame : Frame.t) =
  if frame.Frame.input_refs <= 0 then invalid_arg "Phys_mem.unref_input: no reference";
  frame.Frame.input_refs <- frame.Frame.input_refs - 1;
  reclaim_if_due t frame

let unref_output t (frame : Frame.t) =
  if frame.Frame.output_refs <= 0 then invalid_arg "Phys_mem.unref_output: no reference";
  frame.Frame.output_refs <- frame.Frame.output_refs - 1;
  reclaim_if_due t frame

let adopt t (frame : Frame.t) =
  match frame.Frame.state with
  | Frame.Zombie ->
    t.zombies <- t.zombies - 1;
    frame.Frame.state <- Frame.Allocated
  | Frame.Allocated -> ()
  | Frame.Free -> invalid_arg "Phys_mem.adopt: frame is free"

type block = {
  pm : t;
  mutable next : int; (* [next, stop): ids not yet taken, maybe unborn *)
  stop : int;
  queue : Frame.t Queue.t; (* frames behind the id run, FIFO *)
}

let alloc_block t n =
  if n < 0 then invalid_arg "Phys_mem.alloc_block: negative size";
  if n > free_frames t then raise Out_of_frames;
  let k = Stdlib.min n (t.total - t.fresh) in
  let b = { pm = t; next = t.fresh; stop = t.fresh + k; queue = Queue.create () } in
  (* Records a lookup already created are handed out now; the rest are
     born handed out. *)
  for id = b.next to Stdlib.min b.stop (Array.length t.frames) - 1 do
    if t.frames.(id) != missing then
      hand_out_in_block t.frames.(id) ~poison:!debug_poison
  done;
  t.fresh <- b.stop;
  if !debug_poison && k > 0 then t.poisoned <- (b.next, b.stop) :: t.poisoned;
  count t ~n:k "frame_allocs";
  for _ = k + 1 to n do
    Queue.add (alloc t) b.queue
  done;
  b

let block_take b =
  if b.next < b.stop then begin
    let id = b.next in
    b.next <- id + 1;
    Some (frame_by_id b.pm id)
  end
  else Queue.take_opt b.queue

let block_add b frame = Queue.add frame b.queue
let block_length b = b.stop - b.next + Queue.length b.queue

let block_iter b f =
  for id = b.next to b.stop - 1 do
    f (frame_by_id b.pm id)
  done;
  Queue.iter f b.queue

let zombie_count t = t.zombies
let free_ids t =
  List.init (t.total - t.fresh) (fun i -> t.fresh + i)
  @ List.of_seq (Queue.to_seq t.free)
