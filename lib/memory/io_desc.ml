type seg = { frame : Frame.t; off : int; len : int }
type t = { segs : seg list; total_len : int }

let of_segs segs =
  List.iter
    (fun s ->
      if s.off < 0 || s.len < 0 || s.off + s.len > Frame.page_size s.frame then
        invalid_arg "Io_desc.of_segs: segment out of frame bounds")
    segs;
  { segs; total_len = List.fold_left (fun n s -> n + s.len) 0 segs }

let total_len t = t.total_len
let single frame ~off ~len = of_segs [ { frame; off; len } ]

(* Walk segments, applying [f seg seg_off n] for the byte range
   [off, off+len) of the descriptor, where [seg_off] is the offset within
   the segment and [n] the chunk length. *)
let iter_range t ~off ~len f =
  if off < 0 || len < 0 || off + len > t.total_len then
    invalid_arg "Io_desc: range out of bounds";
  let rec go segs skip remaining =
    if remaining > 0 then
      match segs with
      | [] -> assert false
      | seg :: rest ->
        if skip >= seg.len then go rest (skip - seg.len) remaining
        else begin
          let n = min (seg.len - skip) remaining in
          f seg skip n;
          go rest 0 (remaining - n)
        end
  in
  go t.segs off len

let to_iovec ?(off = 0) ?len t =
  let len = match len with Some l -> l | None -> t.total_len - off in
  if len = 0 then Iovec.empty
  else begin
    let acc = ref [] in
    iter_range t ~off ~len (fun seg seg_off n ->
        acc := Iovec.of_frame seg.frame ~off:(seg.off + seg_off) ~len:n :: !acc);
    Iovec.concat (List.rev !acc)
  end

let gather t ~off ~len =
  let out = Bytes.create len in
  let cursor = ref 0 in
  iter_range t ~off ~len (fun seg seg_off n ->
      Frame.blit_out seg.frame ~src_off:(seg.off + seg_off) ~dst:out
        ~dst_off:!cursor ~len:n;
      cursor := !cursor + n);
  out

let scatter t ~off ~src ~src_off ~len =
  let cursor = ref src_off in
  iter_range t ~off ~len (fun seg seg_off n ->
      Frame.blit_in seg.frame ~dst_off:(seg.off + seg_off) ~src ~src_off:!cursor
        ~len:n;
      cursor := !cursor + n)

let frames t =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun seg ->
      if Hashtbl.mem seen seg.frame.Frame.id then None
      else begin
        Hashtbl.add seen seg.frame.Frame.id ();
        Some seg.frame
      end)
    t.segs
