type t = {
  queue : Frame.t Queue.t;
  mutable evict : Frame.t -> bool;
}

let create () = { queue = Queue.create (); evict = (fun _ -> false) }

let register t (frame : Frame.t) =
  if not frame.Frame.pageable then begin
    frame.Frame.pageable <- true;
    Queue.add frame t.queue
  end

(* Lazy removal: the flag is authoritative; stale queue entries are
   dropped during scans. *)
let unregister _t (frame : Frame.t) = frame.Frame.pageable <- false

let set_evict_hook t hook = t.evict <- hook

let eligible _t (frame : Frame.t) =
  frame.Frame.pageable && frame.Frame.state = Frame.Allocated
  && frame.Frame.wired = 0
  && frame.Frame.input_refs = 0 (* input-disabled pageout *)

let scan t ~target =
  let evicted = ref 0 in
  let examined = ref 0 in
  let budget = Queue.length t.queue in
  let skipped = Queue.create () in
  while !evicted < target && !examined < budget && not (Queue.is_empty t.queue) do
    incr examined;
    let frame = Queue.take t.queue in
    if not frame.Frame.pageable then () (* lazily unregistered: drop *)
    else if eligible t frame && t.evict frame then begin
      frame.Frame.pageable <- false;
      incr evicted
    end
    else Queue.add frame skipped
  done;
  Queue.transfer skipped t.queue;
  !evicted
