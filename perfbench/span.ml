(* In-memory span recorder for the traced run.

   The benchmark's own code opens a root span around each workload entry
   call and a child span around every layer call it times.  A span
   records its name, start, end, parent and run id, plus how many layer
   calls it covers; spans stay in memory and are written out once, when
   the run ends.  A span's self time is its duration minus the time its
   children cover (children nest inside their parent, one at a time). *)

type span = {
  id : int;
  parent : int;  (* 0 for a root span *)
  run : int;
  name : string;
  calls : int;
  start_ns : int;
  stop_ns : int;
}

type t = {
  run : int;
  mutable next_id : int;
  mutable open_ids : int list;
  mutable rev_spans : span list;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let create ~run = { run; next_id = 1; open_ids = []; rev_spans = [] }

let with_span t ?(calls = 1) name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ids with p :: _ -> p | [] -> 0 in
  t.open_ids <- id :: t.open_ids;
  let start_ns = now_ns () in
  Fun.protect f ~finally:(fun () ->
      let stop_ns = now_ns () in
      t.open_ids <- List.tl t.open_ids;
      t.rev_spans <-
        { id; parent; run = t.run; name; calls; start_ns; stop_ns }
        :: t.rev_spans)

(* The untraced run passes [None] and pays nothing. *)
let record t ?calls name f =
  match t with None -> f () | Some t -> with_span t ?calls name f

let duration s = s.stop_ns - s.start_ns

type summary = {
  s_name : string;
  count : int;
  s_calls : int;
  total_ns : int;
  self_ns : int;
}

(* Per span name, in order of first completion. *)
let summarize t =
  let spans = List.rev t.rev_spans in
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (duration s
          + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
    spans;
  let by_name = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun s ->
      let self =
        duration s - Option.value ~default:0 (Hashtbl.find_opt children s.id)
      in
      match Hashtbl.find_opt by_name s.name with
      | None ->
        order := s.name :: !order;
        Hashtbl.replace by_name s.name
          {
            s_name = s.name;
            count = 1;
            s_calls = s.calls;
            total_ns = duration s;
            self_ns = self;
          }
      | Some m ->
        Hashtbl.replace by_name s.name
          {
            m with
            count = m.count + 1;
            s_calls = m.s_calls + s.calls;
            total_ns = m.total_ns + duration s;
            self_ns = m.self_ns + self;
          })
    spans;
  List.rev_map (Hashtbl.find by_name) !order

let to_json t =
  Stats.Json.List
    (List.rev_map
       (fun s ->
         Stats.Json.Obj
           [
             ("id", Stats.Json.Int s.id);
             ("parent", Stats.Json.Int s.parent);
             ("run", Stats.Json.Int s.run);
             ("name", Stats.Json.Str s.name);
             ("calls", Stats.Json.Int s.calls);
             ("start_ns", Stats.Json.Int s.start_ns);
             ("end_ns", Stats.Json.Int s.stop_ns);
           ])
       t.rev_spans)
