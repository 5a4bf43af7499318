type slice = { base : bytes; s_off : int; s_len : int }
type t = { slices : slice list; total : int }

let empty = { slices = []; total = 0 }
let length t = t.total

let make_slice base ~off ~len ~what =
  if off < 0 || len < 0 || off + len > Bytes.length base then
    invalid_arg (Printf.sprintf "Iovec.%s: range out of bounds" what);
  if len = 0 then empty
  else { slices = [ { base; s_off = off; s_len = len } ]; total = len }

let of_bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  make_slice b ~off ~len ~what:"of_bytes"

let of_frame ?(off = 0) ?len (f : Frame.t) =
  let len = match len with Some l -> l | None -> Frame.page_size f - off in
  make_slice (Frame.data f) ~off ~len ~what:"of_frame"

let concat ts =
  {
    slices = List.concat_map (fun t -> t.slices) ts;
    total = List.fold_left (fun n t -> n + t.total) 0 ts;
  }

let sub t ~off ~len =
  if off < 0 || len < 0 || off + len > t.total then
    invalid_arg "Iovec.sub: range out of bounds";
  if len = 0 then empty
  else begin
    let rec take slices skip remaining acc =
      if remaining = 0 then List.rev acc
      else
        match slices with
        | [] -> assert false
        | s :: rest ->
          if skip >= s.s_len then take rest (skip - s.s_len) remaining acc
          else begin
            let n = min (s.s_len - skip) remaining in
            take rest 0 (remaining - n)
              ({ base = s.base; s_off = s.s_off + skip; s_len = n } :: acc)
          end
    in
    { slices = take t.slices off len []; total = len }
  end

let iter_slices t f =
  List.iter (fun s -> f s.base ~off:s.s_off ~len:s.s_len) t.slices

let fold t ~init ~f =
  List.fold_left (fun acc s -> f acc s.base ~off:s.s_off ~len:s.s_len) init
    t.slices

let blit_to t ~dst ~dst_off =
  let cursor = ref dst_off in
  iter_slices t (fun base ~off ~len ->
      Bytes.blit base off dst !cursor len;
      cursor := !cursor + len)

let to_bytes t =
  let out = Bytes.create t.total in
  blit_to t ~dst:out ~dst_off:0;
  out

let get t i =
  if i < 0 || i >= t.total then invalid_arg "Iovec.get: index out of bounds";
  let rec go slices skip =
    match slices with
    | [] -> assert false
    | s :: rest ->
      if skip < s.s_len then Bytes.get s.base (s.s_off + skip)
      else go rest (skip - s.s_len)
  in
  go t.slices i
