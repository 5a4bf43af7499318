module C = Machine.Cost_model

type config = {
  max_pages : int;
  readahead_window : int;
  readahead_min_run : int;
  writeback_interval_us : float;
  dirty_high : int;
  dirty_throttle : int;
}

let default_config =
  {
    max_pages = 256;
    readahead_window = 8;
    readahead_min_run = 2;
    writeback_interval_us = 30_000.;
    dirty_high = 64;
    dirty_throttle = 96;
  }

type charging = {
  charge : C.op -> bytes:int -> unit;
  charge_n : C.op -> bytes:int -> n:int -> unit;
  charged_until : unit -> Simcore.Sim_time.t;
}

type entry = {
  e_fd : int;
  e_page : int;
  frame : Memory.Frame.t;
  mutable lru : int;  (* unique access stamp; eviction takes the minimum *)
  mutable pins : int;  (* reads in progress over this page *)
  mutable dirty : bool;
  mutable epoch : int;  (* bumped per dirtying; writeback compares at retire *)
  mutable wb_epoch : int option;  (* epoch snapshot of an in-flight writeback *)
  mutable filling : bool;  (* device read into the frame in flight *)
  mutable fill_waiters : (unit -> unit) list;
  mutable clean_waiters : (unit -> unit) list;
}

type file_rec = {
  fd : int;
  mutable size : int;
  blocks : (int, int) Hashtbl.t;  (* page index -> device block *)
  mutable seq_next : int;  (* sequential detector: expected next page *)
  mutable seq_run : int;
}

type t = {
  engine : Simcore.Engine.t;
  dev : Block_dev.t;
  cfg : config;
  page_size : int;
  chg : charging;
  alloc_frame : unit -> Memory.Frame.t option;
  free_frame : Memory.Frame.t -> unit;
  table : (int * int, entry) Hashtbl.t;
  files : (int, file_rec) Hashtbl.t;
  mutable next_fd : int;
  mutable next_block : int;
  mutable lru_clock : int;
  mutable dirty_count : int;
  mutable flusher_armed : bool;
  throttled : (unit -> unit) Queue.t;
  mutable trace : Simcore.Tracer.scope option;
}

let create ?(config = default_config) ~engine ~dev ~charging ~alloc_frame
    ~free_frame () =
  {
    engine;
    dev;
    cfg = config;
    page_size = Block_dev.page_size dev;
    chg = charging;
    alloc_frame;
    free_frame;
    table = Hashtbl.create 256;
    files = Hashtbl.create 8;
    next_fd = 3;
    next_block = 0;
    lru_clock = 0;
    dirty_count = 0;
    flusher_armed = false;
    throttled = Queue.create ();
    trace = None;
  }

let set_trace_scope t scope = t.trace <- Some scope
let dev t = t.dev
let dirty_pages t = t.dirty_count
let is_cached t ~fd ~page = Hashtbl.mem t.table (fd, page)

let counter t ?(n = 1) name =
  match t.trace with
  | Some s when n > 0 -> Simcore.Tracer.add_counter s ~n name
  | _ -> ()

let open_file t =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.add t.files fd
    { fd; size = 0; blocks = Hashtbl.create 32; seq_next = 0; seq_run = 0 };
  fd

let file t fd =
  match Hashtbl.find_opt t.files fd with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Page_cache: unknown fd %d" fd)

let file_size t fd = (file t fd).size

let block_for t fr page =
  match Hashtbl.find_opt fr.blocks page with
  | Some b -> b
  | None ->
    let b = t.next_block in
    t.next_block <- b + 1;
    Hashtbl.add fr.blocks page b;
    b

let entry t fd page = Hashtbl.find t.table (fd, page)

let touch t e =
  t.lru_clock <- t.lru_clock + 1;
  e.lru <- t.lru_clock

let insert t fd page frame ~filling =
  let e =
    {
      e_fd = fd;
      e_page = page;
      frame;
      lru = 0;
      pins = 0;
      dirty = false;
      epoch = 0;
      wb_epoch = None;
      filling;
      fill_waiters = [];
      clean_waiters = [];
    }
  in
  touch t e;
  Hashtbl.add t.table (fd, page) e;
  e

let by_location a b = compare (a.e_fd, a.e_page) (b.e_fd, b.e_page)

(* Group sorted entries into runs of consecutive device blocks: one
   run, one device request. *)
let group_runs t es =
  let blk e = block_for t (file t e.e_fd) e.e_page in
  match List.sort by_location es with
  | [] -> []
  | e0 :: rest ->
    let b0 = blk e0 in
    let rec go acc run run_b0 prev_b prev = function
      | [] -> List.rev ((run_b0, List.rev run) :: acc)
      | e :: tl ->
        let b = blk e in
        if e.e_fd = prev.e_fd && b = prev_b + 1 then
          go acc (e :: run) run_b0 b e tl
        else go ((run_b0, List.rev run) :: acc) [ e ] b b e tl
    in
    go [] [ e0 ] b0 b0 e0 rest

let submit_reads t es =
  List.iter
    (fun (b0, run) ->
      Block_dev.submit t.dev ~dir:`Read ~block:b0
        ~frames:(List.map (fun e -> e.frame) run)
        ~on_complete:(fun () ->
          List.iter
            (fun e ->
              e.filling <- false;
              let ws = List.rev e.fill_waiters in
              e.fill_waiters <- [];
              List.iter (fun k -> k ()) ws)
            run))
    (group_runs t es)

(* The flusher, batched writeback and write-throttling form one knot:
   writeback completions drain throttled writers and re-arm the flusher
   while anything stays dirty (a page re-dirtied mid-flight survives the
   epoch check and needs another pass). *)
let rec arm_flusher t =
  if not t.flusher_armed then begin
    t.flusher_armed <- true;
    Simcore.Engine.schedule t.engine
      ~delay:(Simcore.Sim_time.of_us t.cfg.writeback_interval_us) (fun () ->
        t.flusher_armed <- false;
        if t.dirty_count > 0 then begin
          kick_writeback t;
          arm_flusher t
        end)
  end

and kick_writeback t =
  let dirty =
    Hashtbl.fold
      (fun _ e acc ->
        if e.dirty && e.wb_epoch = None && not e.filling then e :: acc else acc)
      t.table []
  in
  List.iter
    (fun (b0, run) ->
      List.iter (fun e -> e.wb_epoch <- Some e.epoch) run;
      counter t ~n:(List.length run) "writebacks";
      Block_dev.submit t.dev ~dir:`Write ~block:b0
        ~frames:(List.map (fun e -> e.frame) run)
        ~on_complete:(fun () ->
          List.iter
            (fun e ->
              (match e.wb_epoch with
              | Some ep when e.dirty && ep = e.epoch ->
                e.dirty <- false;
                t.dirty_count <- t.dirty_count - 1;
                let ws = List.rev e.clean_waiters in
                e.clean_waiters <- [];
                List.iter (fun k -> k ()) ws
              | _ -> ());
              e.wb_epoch <- None)
            run;
          drain_throttled t;
          if t.dirty_count > 0 then arm_flusher t))
    (group_runs t dirty)

and drain_throttled t =
  while
    t.dirty_count <= t.cfg.dirty_throttle && not (Queue.is_empty t.throttled)
  do
    (Queue.pop t.throttled) ()
  done

let writeback_now = kick_writeback

let evictable e =
  e.pins = 0 && (not e.dirty) && (not e.filling) && e.wb_epoch = None
  && not (Memory.Frame.io_referenced e.frame)

(* Coldest clean page; the lru stamp is unique, so the winner is
   independent of hash iteration order. *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        if evictable e then
          match acc with Some b when b.lru <= e.lru -> acc | _ -> Some e
        else acc)
      t.table None
  in
  match victim with
  | Some e ->
    Hashtbl.remove t.table (e.e_fd, e.e_page);
    counter t "cache_evictions";
    Some e.frame
  | None -> None

(* One frame for a new page: evict when at capacity, allocate below it,
   fall back to eviction under exhaustion, and as a last resort kick
   writeback (to mint clean pages for a later retry) and fail.
   [extra] counts frames already claimed for the same operation but not
   yet inserted. *)
let take_frame t ~extra =
  let at_capacity = Hashtbl.length t.table + extra >= t.cfg.max_pages in
  let evicted = if at_capacity then evict_one t else None in
  match evicted with
  | Some _ as f -> f
  | None -> (
    match t.alloc_frame () with
    | Some _ as f -> f
    | None -> (
      match evict_one t with
      | Some _ as f -> f
      | None ->
        kick_writeback t;
        None))

let grab_frames t n =
  let rec go acc k =
    if k = n then Some (List.rev acc)
    else
      match take_frame t ~extra:k with
      | Some f -> go (f :: acc) (k + 1)
      | None ->
        List.iter t.free_frame acc;
        None
  in
  if n = 0 then Some [] else go [] 0

let mark_dirty t e =
  e.epoch <- e.epoch + 1;
  if not e.dirty then begin
    e.dirty <- true;
    t.dirty_count <- t.dirty_count + 1;
    t.chg.charge C.Writeback_schedule ~bytes:0;
    arm_flusher t
  end

let missing_pages t fd ~p0 ~p1 =
  let acc = ref [] in
  for p = p1 downto p0 do
    if not (Hashtbl.mem t.table (fd, p)) then acc := p :: !acc
  done;
  !acc

(* Scatter list over the cache frames, sliced to [off, off+len). *)
let desc_of_range t fd ~off ~len =
  let p0 = off / t.page_size and p1 = (off + len - 1) / t.page_size in
  let segs = ref [] in
  for p = p1 downto p0 do
    let e = entry t fd p in
    let page_start = p * t.page_size in
    let s = max off page_start
    and fin = min (off + len) (page_start + t.page_size) in
    segs :=
      { Memory.Io_desc.frame = e.frame; off = s - page_start; len = fin - s }
      :: !segs
  done;
  Memory.Io_desc.of_segs !segs

let note_access t fr ~p0 ~p1 =
  if p0 = fr.seq_next then fr.seq_run <- fr.seq_run + (p1 - p0 + 1)
  else fr.seq_run <- p1 - p0 + 1;
  fr.seq_next <- p1 + 1;
  if fr.seq_run >= t.cfg.readahead_min_run && t.cfg.readahead_window > 0 then begin
    let last_page = if fr.size = 0 then -1 else (fr.size - 1) / t.page_size in
    let lo = p1 + 1 in
    let hi = min (lo + t.cfg.readahead_window - 1) last_page in
    let wanted = if lo > hi then [] else missing_pages t fr.fd ~p0:lo ~p1:hi in
    (* Best-effort: stop at the first frame we cannot get, never fail
       the read that triggered us. *)
    let rec go acc k = function
      | [] -> List.rev acc
      | p :: rest -> (
        match take_frame t ~extra:k with
        | Some f -> go ((p, f) :: acc) (k + 1) rest
        | None -> List.rev acc)
    in
    let got = go [] 0 wanted in
    if got <> [] then begin
      t.chg.charge_n C.Readahead_issue ~bytes:0 ~n:(List.length got);
      counter t ~n:(List.length got) "readaheads";
      submit_reads t
        (List.map (fun (p, f) -> insert t fr.fd p f ~filling:true) got)
    end
  end

let read t ~fd ~off ~len ~on_complete =
  let fr = file t fd in
  if off < 0 || len < 0 then invalid_arg "Page_cache.read: negative range";
  let len = min len (max 0 (fr.size - off)) in
  if len = 0 then begin
    t.chg.charge C.Cache_lookup ~bytes:0;
    Simcore.Engine.at t.engine
      ~time:(t.chg.charged_until ())
      (fun () -> on_complete (Memory.Io_desc.of_segs []));
    Ok ()
  end
  else begin
    let p0 = off / t.page_size and p1 = (off + len - 1) / t.page_size in
    let npages = p1 - p0 + 1 in
    (* Pin resident pages first so admitting the missing ones cannot
       evict them out from under this very read. *)
    let resident = ref [] in
    for p = p1 downto p0 do
      match Hashtbl.find_opt t.table (fd, p) with
      | Some e ->
        e.pins <- e.pins + 1;
        touch t e;
        resident := e :: !resident
      | None -> ()
    done;
    let missing = missing_pages t fd ~p0 ~p1 in
    match grab_frames t (List.length missing) with
    | None ->
      List.iter (fun e -> e.pins <- e.pins - 1) !resident;
      counter t "store_rejects";
      Error `Again
    | Some frames ->
      t.chg.charge_n C.Cache_lookup ~bytes:0 ~n:npages;
      counter t ~n:(npages - List.length missing) "cache_hits";
      counter t ~n:(List.length missing) "cache_misses";
      let news =
        List.map2
          (fun p f ->
            let e = insert t fd p f ~filling:true in
            e.pins <- e.pins + 1;
            e)
          missing frames
      in
      submit_reads t news;
      note_access t fr ~p0 ~p1;
      let pending = ref 1 in
      let fire () =
        let desc = desc_of_range t fd ~off ~len in
        for p = p0 to p1 do
          let e = entry t fd p in
          e.pins <- e.pins - 1
        done;
        on_complete desc
      in
      let dec () =
        decr pending;
        if !pending = 0 then fire ()
      in
      for p = p0 to p1 do
        let e = entry t fd p in
        if e.filling then begin
          incr pending;
          e.fill_waiters <- dec :: e.fill_waiters
        end
      done;
      if !pending = 1 then
        Simcore.Engine.at t.engine ~time:(t.chg.charged_until ()) dec
      else dec ();
      Ok ()
  end

let write t ~fd ~off ~data ~on_complete =
  let fr = file t fd in
  let len = Bytes.length data in
  if off < 0 then invalid_arg "Page_cache.write: negative offset";
  if len = 0 then begin
    t.chg.charge C.Cache_lookup ~bytes:0;
    Simcore.Engine.at t.engine ~time:(t.chg.charged_until ()) on_complete;
    Ok ()
  end
  else begin
    let p0 = off / t.page_size and p1 = (off + len - 1) / t.page_size in
    let npages = p1 - p0 + 1 in
    let resident = ref [] in
    for p = p1 downto p0 do
      match Hashtbl.find_opt t.table (fd, p) with
      | Some e ->
        e.pins <- e.pins + 1;
        touch t e;
        resident := e :: !resident
      | None -> ()
    done;
    let missing = missing_pages t fd ~p0 ~p1 in
    let unpin () = List.iter (fun e -> e.pins <- e.pins - 1) !resident in
    match grab_frames t (List.length missing) with
    | None ->
      unpin ();
      counter t "store_rejects";
      Error `Again
    | Some frames ->
      t.chg.charge_n C.Cache_lookup ~bytes:0 ~n:npages;
      counter t ~n:(npages - List.length missing) "cache_hits";
      counter t ~n:(List.length missing) "cache_misses";
      t.chg.charge C.Copyin ~bytes:len;
      let news = Hashtbl.create 8 in
      List.iter2
        (fun p f -> Hashtbl.add news p (insert t fd p f ~filling:false))
        missing frames;
      let apply p e =
        let page_start = p * t.page_size in
        let s = max off page_start
        and fin = min (off + len) (page_start + t.page_size) in
        Memory.Frame.blit_in e.frame ~dst_off:(s - page_start) ~src:data
          ~src_off:(s - off) ~len:(fin - s);
        mark_dirty t e
      in
      let complete () =
        if t.dirty_count > t.cfg.dirty_throttle then begin
          counter t "wb_throttles";
          Queue.add on_complete t.throttled;
          kick_writeback t
        end
        else on_complete ()
      in
      let pending = ref 1 in
      let dec () =
        decr pending;
        if !pending = 0 then complete ()
      in
      let rmw = ref [] in
      for p = p0 to p1 do
        let e = entry t fd p in
        let page_start = p * t.page_size in
        let fully = off <= page_start && off + len >= page_start + t.page_size in
        match Hashtbl.find_opt news p with
        | Some _ when not fully ->
          Memory.Frame.fill e.frame '\000';
          if page_start < fr.size then begin
            (* Partial overwrite of existing data: read-modify-write. *)
            e.filling <- true;
            rmw := e :: !rmw;
            incr pending;
            e.fill_waiters <-
              (fun () ->
                apply p e;
                dec ())
              :: e.fill_waiters
          end
          else apply p e
        | Some _ -> apply p e
        | None ->
          if e.filling then begin
            incr pending;
            e.fill_waiters <-
              (fun () ->
                apply p e;
                dec ())
              :: e.fill_waiters
          end
          else apply p e
      done;
      unpin ();
      if !rmw <> [] then submit_reads t !rmw;
      fr.size <- max fr.size (off + len);
      if t.dirty_count >= t.cfg.dirty_high then kick_writeback t;
      if !pending = 1 then
        Simcore.Engine.at t.engine ~time:(t.chg.charged_until ()) dec
      else dec ();
      Ok ()
  end

let fsync t ~fd ~on_complete =
  ignore (file t fd);
  counter t "fsyncs";
  t.chg.charge C.Cache_lookup ~bytes:0;
  let dirty =
    Hashtbl.fold
      (fun _ e acc -> if e.e_fd = fd && e.dirty then e :: acc else acc)
      t.table []
    |> List.sort by_location
  in
  let barrier () = Block_dev.flush t.dev ~on_complete in
  if dirty = [] then
    Simcore.Engine.at t.engine ~time:(t.chg.charged_until ()) barrier
  else begin
    let remaining = ref (List.length dirty) in
    List.iter
      (fun e ->
        e.clean_waiters <-
          (fun () ->
            decr remaining;
            if !remaining = 0 then barrier ())
          :: e.clean_waiters)
      dirty;
    kick_writeback t
  end

let drop_caches t =
  let victims =
    Hashtbl.fold
      (fun _ e acc -> if evictable e then e :: acc else acc)
      t.table []
    |> List.sort by_location
  in
  List.iter
    (fun e ->
      Hashtbl.remove t.table (e.e_fd, e.e_page);
      t.free_frame e.frame)
    victims;
  counter t ~n:(List.length victims) "cache_evictions";
  List.length victims
