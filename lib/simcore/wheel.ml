(* Calendar-queue timer wheel with an overflow heap.

   The near window is [n_buckets] buckets of [2^bucket_bits] ns each
   (~1 ms of simulated time at the defaults); events beyond it overflow
   into a binary heap and migrate into the buckets as the cursor
   approaches.  Each bucket stores its entries in parallel [keys] /
   [seqs] / values arrays, so the schedule fast path is a bounds check
   and three stores — no per-entry allocation beyond the caller's
   closure.

   Pop order is exactly the {!Heap} order the engine relied on:
   ascending [key], ties broken by insertion order ([seq]).

   The cursor [cur_abs] tracks a lower bound on the absolute bucket of
   every pending near entry: it advances over empty buckets during a
   scan and rewinds when a push lands below it (the engine peeks ahead
   of the clock in [run_until], so pushes below the cursor are normal).
   A scan therefore walks at most one full lap, keeping a running
   minimum — entries from a later lap sharing a slot are compared by
   key, never assumed absent — and stops early once no unscanned bucket
   can beat the minimum found.

   Cancellation is lazy: [cancel] marks the entry's sequence number and
   decrements the size; the entry itself is swept out when its bucket is
   next scanned (or dropped at migration).  Both tables stay empty — and
   cost nothing — unless [push_cancellable] is used.

   A bucket record is born at the first push into its slot: until then
   the slot holds the wheel's shared [empty] bucket, whose length stays
   0, so scans and sweeps read it like any drained bucket and a wheel
   that only ever touches a few slots pays for those few.  The slots
   live in 256-slot chunks, not one 1,024-slot array: an array longer
   than 256 words is born in the major heap, and [Array.make] first
   forces a minor collection when its initial value — [empty] — is
   still young. *)

let bucket_bits = 10 (* 1024 ns per bucket *)
let n_buckets = 1024
let mask = n_buckets - 1
let chunk_bits = 8 (* 256 slots per chunk *)
let chunk_mask = (1 lsl chunk_bits) - 1

type 'a bucket = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
}

type 'a t = {
  dummy : 'a;
  empty : 'a bucket; (* shared by every slot never pushed into *)
  chunks : 'a bucket array array; (* slot [s] is [chunks.(s lsr chunk_bits)] *)
  mutable cur_abs : int; (* lower bound on pending near entries' buckets *)
  mutable near_count : int;
  far : (int * 'a) Heap.t; (* key -> (seq, value) *)
  mutable size : int;
  mutable next_seq : int;
  mutable floor : int; (* key of the last pop; pushes must not go below *)
  cancellable : (int, unit) Hashtbl.t; (* live cancellable seqs *)
  cancelled : (int, unit) Hashtbl.t; (* cancelled, not yet swept *)
}

let new_bucket () = { keys = [||]; seqs = [||]; vals = [||]; len = 0 }

let create ~dummy () =
  let empty = new_bucket () in
  {
    dummy;
    empty;
    chunks =
      Array.init (n_buckets lsr chunk_bits) (fun _ ->
          Array.make (1 lsl chunk_bits) empty);
    cur_abs = 0;
    near_count = 0;
    far = Heap.create ();
    size = 0;
    next_seq = 0;
    floor = 0;
    cancellable = Hashtbl.create 8;
    cancelled = Hashtbl.create 8;
  }

let bucket t slot = t.chunks.(slot lsr chunk_bits).(slot land chunk_mask)

let length t = t.size
let is_empty t = t.size = 0
let abs_bucket key = key lsr bucket_bits

let bucket_add t b ~key ~seq v =
  let cap = Array.length b.keys in
  if b.len = cap then begin
    let ncap = Stdlib.max 8 (2 * cap) in
    let nk = Array.make ncap 0 and ns = Array.make ncap 0 in
    let nv = Array.make ncap t.dummy in
    Array.blit b.keys 0 nk 0 b.len;
    Array.blit b.seqs 0 ns 0 b.len;
    Array.blit b.vals 0 nv 0 b.len;
    b.keys <- nk;
    b.seqs <- ns;
    b.vals <- nv
  end;
  b.keys.(b.len) <- key;
  b.seqs.(b.len) <- seq;
  b.vals.(b.len) <- v;
  b.len <- b.len + 1

let bucket_remove t b i =
  let last = b.len - 1 in
  b.keys.(i) <- b.keys.(last);
  b.seqs.(i) <- b.seqs.(last);
  b.vals.(i) <- b.vals.(last);
  b.vals.(last) <- t.dummy;
  b.len <- last

(* Drop entries whose seq was cancelled; their size was already
   subtracted at cancel time. *)
let sweep_bucket t b =
  if Hashtbl.length t.cancelled > 0 then begin
    let i = ref 0 in
    while !i < b.len do
      let seq = b.seqs.(!i) in
      if Hashtbl.mem t.cancelled seq then begin
        Hashtbl.remove t.cancelled seq;
        bucket_remove t b !i;
        t.near_count <- t.near_count - 1
      end
      else incr i
    done
  end

let add_near t ~key ~seq v =
  let abs = abs_bucket key in
  if abs < t.cur_abs then t.cur_abs <- abs;
  let slot = abs land mask in
  let b = bucket t slot in
  let b =
    if b != t.empty then b
    else begin
      let b = new_bucket () in
      t.chunks.(slot lsr chunk_bits).(slot land chunk_mask) <- b;
      b
    end
  in
  bucket_add t b ~key ~seq v;
  t.near_count <- t.near_count + 1

let insert t ~key ~seq v =
  if abs_bucket key < t.cur_abs + n_buckets then add_near t ~key ~seq v
  else Heap.push t.far ~key (seq, v)

let push t ~key v =
  if key < 0 then invalid_arg "Wheel.push: negative key";
  if key < t.floor then invalid_arg "Wheel.push: key below last popped key";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  insert t ~key ~seq v;
  t.size <- t.size + 1

let push_cancellable t ~key v =
  if key < 0 then invalid_arg "Wheel.push_cancellable: negative key";
  if key < t.floor then
    invalid_arg "Wheel.push_cancellable: key below last popped key";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Hashtbl.replace t.cancellable seq ();
  insert t ~key ~seq v;
  t.size <- t.size + 1;
  seq

let cancel t token =
  if Hashtbl.mem t.cancellable token then begin
    Hashtbl.remove t.cancellable token;
    Hashtbl.replace t.cancelled token ();
    t.size <- t.size - 1;
    true
  end
  else false

(* Pull far-future events whose bucket entered the near window. *)
let migrate t =
  let continue = ref true in
  while !continue do
    match Heap.peek_key t.far with
    | Some key when abs_bucket key < t.cur_abs + n_buckets -> (
      match Heap.pop t.far with
      | Some (key, (seq, v)) ->
        if Hashtbl.mem t.cancelled seq then Hashtbl.remove t.cancelled seq
        else add_near t ~key ~seq v
      | None -> continue := false)
    | _ -> continue := false
  done

(* Locate the minimum (key, seq) entry.  Scans buckets from the cursor,
   keeping a running minimum over every entry seen (including later-lap
   entries sharing a slot) and stopping as soon as no unscanned bucket
   could hold a smaller key.  When the far heap's minimum could contend
   with the near minimum, its head entries are force-pulled into the
   buckets and the scan restarts. *)
let rec find_min t =
  if t.size = 0 then None
  else begin
    migrate t;
    if t.near_count = 0 then (
      match Heap.peek_key t.far with
      | Some key ->
        t.cur_abs <- Stdlib.max t.cur_abs (abs_bucket key);
        migrate t;
        find_min t
      | None -> None (* unreachable: size > 0 implies a live entry *))
    else begin
      let best_b = ref (-1) and best_i = ref (-1) in
      let best_key = ref max_int and best_seq = ref max_int in
      let b = ref t.cur_abs and scanned = ref 0 in
      let finished = ref false in
      while (not !finished) && !scanned < n_buckets && t.near_count > 0 do
        let bk = bucket t (!b land mask) in
        sweep_bucket t bk;
        for i = 0 to bk.len - 1 do
          if
            bk.keys.(i) < !best_key
            || (bk.keys.(i) = !best_key && bk.seqs.(i) < !best_seq)
          then begin
            best_key := bk.keys.(i);
            best_seq := bk.seqs.(i);
            best_b := !b land mask;
            best_i := i
          end
        done;
        if !best_b >= 0 && !best_key < (!b + 1) lsl bucket_bits then
          finished := true
        else begin
          incr b;
          incr scanned;
          (* Only empty buckets have been passed so far, so the cursor
             may advance without losing its lower-bound property. *)
          if !best_b < 0 then t.cur_abs <- !b
        end
      done;
      if !best_b < 0 then find_min t (* near was all cancelled; retry far *)
      else begin
        let contended =
          match Heap.peek_key t.far with
          | Some fk -> fk <= !best_key
          | None -> false
        in
        if contended then begin
          let pull = ref true in
          while !pull do
            match Heap.peek_key t.far with
            | Some fk when fk <= !best_key -> (
              match Heap.pop t.far with
              | Some (key, (seq, v)) ->
                if Hashtbl.mem t.cancelled seq then
                  Hashtbl.remove t.cancelled seq
                else add_near t ~key ~seq v
              | None -> pull := false)
            | _ -> pull := false
          done;
          find_min t
        end
        else Some (bucket t !best_b, !best_i)
      end
    end
  end

let peek_key t =
  match find_min t with None -> None | Some (b, i) -> Some b.keys.(i)

let pop t =
  match find_min t with
  | None -> None
  | Some (b, i) ->
    let key = b.keys.(i) and seq = b.seqs.(i) and v = b.vals.(i) in
    bucket_remove t b i;
    t.near_count <- t.near_count - 1;
    t.size <- t.size - 1;
    if Hashtbl.length t.cancellable > 0 then Hashtbl.remove t.cancellable seq;
    t.floor <- key;
    Some (key, v)
