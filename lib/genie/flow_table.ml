(* Generation-stamped slab of flow records.

   The fabric workload opens and closes millions of flows per run, but
   only a bounded number are ever active at once.  Flow state therefore
   lives in a slab of reusable slots managed by a free list: memory is
   O(high-water active flows), not O(total flows).  A handle packs
   (slot, generation); freeing a slot bumps its generation, so a stale
   handle kept across a recycle can never alias the slot's next tenant —
   [get] returns [None] and [free] refuses.  The fuzzer's churn regime
   audits exactly this: the free list must never hand out a handle equal
   to one that is still (or was ever concurrently) live. *)

type handle = int

let slot_bits = 20 (* up to ~1M concurrently active flows *)
let slot_mask = (1 lsl slot_bits) - 1

type 'a t = {
  dummy : 'a;  (* parked in freed slots so payloads don't leak *)
  mutable payload : 'a array;
  mutable generation : int array;
      (* even = free, odd = live: parity makes liveness a property of
         the stamp itself, and a slot's stamp never repeats a live
         value until the 2^42-generation wrap *)
  mutable free : int array;  (* stack of free slot ids *)
  mutable free_top : int;
  mutable live : int;
  mutable high_water : int;
  mutable allocs : int;
}

let create ?(initial = 64) ~dummy () =
  if initial < 1 then invalid_arg "Flow_table.create: initial must be >= 1";
  let n = initial in
  {
    dummy;
    payload = Array.make n dummy;
    generation = Array.make n 0;
    free = Array.init n (fun i -> n - 1 - i);
    free_top = n;
    live = 0;
    high_water = 0;
    allocs = 0;
  }

let live t = t.live
let capacity t = Array.length t.payload
let high_water t = t.high_water
let allocs t = t.allocs

let slot_of h = h land slot_mask
let generation_of h = h asr slot_bits

let grow t =
  let n = Array.length t.payload in
  let n' = 2 * n in
  if n' > slot_mask + 1 then failwith "Flow_table: slot space exhausted";
  let payload = Array.make n' t.dummy in
  Array.blit t.payload 0 payload 0 n;
  let generation = Array.make n' 0 in
  Array.blit t.generation 0 generation 0 n;
  let free = Array.make n' 0 in
  Array.blit t.free 0 free 0 t.free_top;
  (* Push the new slots in descending order so low ids come out first. *)
  for i = 0 to n - 1 do
    free.(t.free_top + i) <- (n' - 1) - i
  done;
  t.payload <- payload;
  t.generation <- generation;
  t.free <- free;
  t.free_top <- t.free_top + n

let alloc t v =
  if t.free_top = 0 then grow t;
  t.free_top <- t.free_top - 1;
  let slot = t.free.(t.free_top) in
  let gen = t.generation.(slot) + 1 in
  (* odd = live *)
  t.generation.(slot) <- gen;
  t.payload.(slot) <- v;
  t.live <- t.live + 1;
  if t.live > t.high_water then t.high_water <- t.live;
  t.allocs <- t.allocs + 1;
  (gen lsl slot_bits) lor slot

let is_live t h =
  let slot = slot_of h in
  slot < Array.length t.payload
  && t.generation.(slot) = generation_of h
  && generation_of h land 1 = 1

let get t h = if is_live t h then Some t.payload.(slot_of h) else None

let free t h =
  if not (is_live t h) then false
  else begin
    let slot = slot_of h in
    (* Bump to even: the slot is free and the stale stamp is dead. *)
    t.generation.(slot) <- t.generation.(slot) + 1;
    t.payload.(slot) <- t.dummy;
    t.free.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1;
    t.live <- t.live - 1;
    true
  end
