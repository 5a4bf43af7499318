type slot = Resident of Memory.Frame.t | Swapped of Memory.Backing_store.slot

type t = {
  id : int;
  pages : (int, slot) Hashtbl.t;
  mutable shadow : t option;
  mutable input_refs : int;
  pageable : bool;
}

let counter = ref 0

let create ?(pageable = true) () =
  incr counter;
  { id = !counter; pages = Hashtbl.create 8; shadow = None; input_refs = 0; pageable }

let shadow_of parent =
  let obj = create ~pageable:parent.pageable () in
  obj.shadow <- Some parent;
  obj

let find_local t idx = Hashtbl.find_opt t.pages idx

let rec find_chain t idx =
  match Hashtbl.find_opt t.pages idx with
  | Some slot -> Some (t, slot)
  | None -> ( match t.shadow with None -> None | Some parent -> find_chain parent idx)

let set_slot t idx slot = Hashtbl.replace t.pages idx slot
let remove_slot t idx = Hashtbl.remove t.pages idx

let rec chain_input_refs t =
  t.input_refs
  + (match t.shadow with None -> 0 | Some parent -> chain_input_refs parent)
