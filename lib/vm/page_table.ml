type pte = { mutable frame : Memory.Frame.t; mutable prot : Prot.t }

type t = {
  entries : (int, pte) Hashtbl.t;
  rmap : (int, (int, unit) Hashtbl.t) Hashtbl.t;  (* frame id -> vpn set *)
}

let create () = { entries = Hashtbl.create 64; rmap = Hashtbl.create 64 }

let find t vpn = Hashtbl.find_opt t.entries vpn

let rmap_add t frame_id vpn =
  match Hashtbl.find_opt t.rmap frame_id with
  | Some set -> Hashtbl.replace set vpn ()
  | None ->
    let set = Hashtbl.create 4 in
    Hashtbl.add set vpn ();
    Hashtbl.add t.rmap frame_id set

let rmap_remove t frame_id vpn =
  match Hashtbl.find_opt t.rmap frame_id with
  | None -> ()
  | Some set ->
    Hashtbl.remove set vpn;
    if Hashtbl.length set = 0 then Hashtbl.remove t.rmap frame_id

let map t ~vpn ~frame ~prot =
  (match Hashtbl.find_opt t.entries vpn with
  | Some pte ->
    rmap_remove t pte.frame.Memory.Frame.id vpn;
    pte.frame <- frame;
    pte.prot <- prot
  | None -> Hashtbl.add t.entries vpn { frame; prot });
  rmap_add t frame.Memory.Frame.id vpn

let unmap t ~vpn =
  match find t vpn with
  | None -> ()
  | Some pte ->
    rmap_remove t pte.frame.Memory.Frame.id vpn;
    Hashtbl.remove t.entries vpn

let vpns_of_frame t (frame : Memory.Frame.t) =
  match Hashtbl.find_opt t.rmap frame.Memory.Frame.id with
  | Some set -> List.sort compare (Hashtbl.fold (fun vpn () acc -> vpn :: acc) set [])
  | None -> []

let iter t f = Hashtbl.iter (fun vpn pte -> f ~vpn pte) t.entries

let check_rmap t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* Every translation must appear in its frame's reverse-map set. *)
  Hashtbl.iter
    (fun vpn (pte : pte) ->
      let fid = pte.frame.Memory.Frame.id in
      match Hashtbl.find_opt t.rmap fid with
      | Some set when Hashtbl.mem set vpn -> ()
      | Some _ -> err "vpn %d maps frame #%d but is missing from its rmap set" vpn fid
      | None -> err "vpn %d maps frame #%d which has no rmap set" vpn fid)
    t.entries;
  (* Every reverse-map pair must correspond to a live translation, sets
     must be non-empty, and the totals must agree with entry_count. *)
  let pairs = ref 0 in
  Hashtbl.iter
    (fun fid set ->
      if Hashtbl.length set = 0 then err "frame #%d has an empty rmap set" fid;
      Hashtbl.iter
        (fun vpn () ->
          incr pairs;
          match Hashtbl.find_opt t.entries vpn with
          | Some pte when pte.frame.Memory.Frame.id = fid -> ()
          | Some pte ->
            err "rmap says frame #%d maps vpn %d but the entry points at #%d" fid
              vpn pte.frame.Memory.Frame.id
          | None -> err "rmap says frame #%d maps vpn %d but vpn is unmapped" fid vpn)
        set)
    t.rmap;
  if !pairs <> Hashtbl.length t.entries then
    err "rmap holds %d pairs but the table has %d entries" !pairs
      (Hashtbl.length t.entries);
  List.rev !errors

let unsafe_rmap_drop t ~vpn ~frame_id = rmap_remove t frame_id vpn
