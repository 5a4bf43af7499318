(* Reference model for [Memory.Phys_mem]: the eager algorithm it
   replaced, kept as the oracle for frames born on first touch.  Every
   frame and its zeroed page exist from [create], and the free list is
   one FIFO pre-filled with every id.  It reads the same
   [Memory.Phys_mem.debug_poison] switch. *)

type state = Free | Allocated | Zombie

type frame = {
  id : int;
  data : bytes;
  mutable input_refs : int;
  mutable output_refs : int;
  mutable state : state;
  mutable known_zero : bool;
}

type t = { frames : frame array; free : int Queue.t; mutable zombies : int }

exception Out_of_frames

let create ~frames ~page_size =
  let frames =
    Array.init frames (fun id ->
        {
          id;
          data = Bytes.make page_size '\x00';
          input_refs = 0;
          output_refs = 0;
          state = Free;
          known_zero = true;
        })
  in
  let free = Queue.create () in
  Array.iter (fun f -> Queue.add f.id free) frames;
  { frames; free; zombies = 0 }

let free_frames t = Queue.length t.free
let free_ids t = List.of_seq (Queue.to_seq t.free)
let zombie_count t = t.zombies
let frame_by_id t id = t.frames.(id)
let io_referenced f = f.input_refs > 0 || f.output_refs > 0
let fill f c = Bytes.fill f.data 0 (Bytes.length f.data) c

let take_free t =
  match Queue.take_opt t.free with
  | None -> raise Out_of_frames
  | Some id ->
    let f = t.frames.(id) in
    assert (f.state = Free);
    f.state <- Allocated;
    f

let alloc t =
  let f = take_free t in
  if !Memory.Phys_mem.debug_poison then fill f '\xAA';
  f.known_zero <- false;
  f

let alloc_zeroed t =
  let f = take_free t in
  if not f.known_zero then fill f '\x00';
  f.known_zero <- false;
  f

let release t f =
  f.state <- Free;
  Queue.add f.id t.free

let alloc_many t n =
  let rec take acc k =
    if k = 0 then List.rev acc
    else
      match alloc t with
      | f -> take (f :: acc) (k - 1)
      | exception Out_of_frames ->
        List.iter (release t) acc;
        raise Out_of_frames
  in
  take [] n

(* A block is [n] allocations made at once, then a FIFO. *)
let alloc_block t n =
  if free_frames t < n then raise Out_of_frames;
  let q = Queue.create () in
  for _ = 1 to n do
    Queue.add (alloc t) q
  done;
  q

let deallocate t f =
  match f.state with
  | Free | Zombie -> invalid_arg "Phys_mem_model.deallocate"
  | Allocated ->
    if io_referenced f then begin
      f.state <- Zombie;
      t.zombies <- t.zombies + 1
    end
    else release t f

let reclaim_if_due t f =
  if f.state = Zombie && not (io_referenced f) then begin
    t.zombies <- t.zombies - 1;
    release t f
  end

let ref_input f = f.input_refs <- f.input_refs + 1
let ref_output f = f.output_refs <- f.output_refs + 1

let unref_input t f =
  f.input_refs <- f.input_refs - 1;
  reclaim_if_due t f

let unref_output t f =
  f.output_refs <- f.output_refs - 1;
  reclaim_if_due t f

let adopt t f =
  match f.state with
  | Zombie ->
    t.zombies <- t.zombies - 1;
    f.state <- Allocated
  | Allocated -> ()
  | Free -> invalid_arg "Phys_mem_model.adopt"
