type dir = Output | Input

type entry = {
  entry_id : int;
  dir : dir;
  sem : Semantics.t;
  space : Vm.Address_space.t;
  region : unit -> Vm.Region.t option;
  handle : unit -> Vm.Page_ref.handle option;
}

type t = {
  held : (int, Memory.Frame.t * int ref) Hashtbl.t;
  mutable entries : entry list;
  mutable next_id : int;
}

let create () = { held = Hashtbl.create 64; entries = []; next_id = 0 }

let hold t (frame : Memory.Frame.t) =
  match Hashtbl.find_opt t.held frame.Memory.Frame.id with
  | Some (_, n) -> incr n
  | None -> Hashtbl.add t.held frame.Memory.Frame.id (frame, ref 1)

let hold_all t frames = List.iter (hold t) frames

(* Tolerant: frames that were never kernel-held (fresh pool refills,
   displaced region pages handed to the pool) release as a no-op. *)
let release t (frame : Memory.Frame.t) =
  match Hashtbl.find_opt t.held frame.Memory.Frame.id with
  | Some (_, n) ->
    decr n;
    if !n <= 0 then Hashtbl.remove t.held frame.Memory.Frame.id
  | None -> ()

let release_all t frames = List.iter (release t) frames

let held_frames t =
  Hashtbl.fold (fun _ (frame, n) acc -> (frame, !n) :: acc) t.held []

let note t ~dir ~sem ~space ~region ~handle =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.entries <- { entry_id = id; dir; sem; space; region; handle } :: t.entries;
  id

let retire t id = t.entries <- List.filter (fun e -> e.entry_id <> id) t.entries
let entries t = t.entries
