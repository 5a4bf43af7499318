(* Classes are powers of two from 2^6 (64 B) to 2^17 (128 KB), enough
   to cover a maximal AAL5 PDU plus headers in one buffer. *)
let min_class_bits = 6
let max_class_bits = 17

type t = {
  classes : bytes Queue.t array;
  max_per_class : int;
  mutable hits : int;
}

let debug_poison = ref false

let create ?(max_per_class = 64) () =
  {
    classes = Array.init (max_class_bits - min_class_bits + 1) (fun _ -> Queue.create ());
    max_per_class;
    hits = 0;
  }

let class_of_len len =
  if len < 0 then invalid_arg "Buf_pool.take: negative length";
  let rec find bits = if 1 lsl bits >= len then bits else find (bits + 1) in
  let bits = find min_class_bits in
  if bits > max_class_bits then None else Some (bits - min_class_bits)

let take t ~len =
  match class_of_len len with
  | None ->
    (* Larger than the biggest class: not poolable. *)
    Bytes.create len
  | Some cls -> (
    match Queue.take_opt t.classes.(cls) with
    | Some buf ->
      t.hits <- t.hits + 1;
      buf
    | None -> Bytes.create (1 lsl (cls + min_class_bits)))

let give t buf =
  let len = Bytes.length buf in
  if len land (len - 1) = 0 then
    match class_of_len len with
    | Some cls when 1 lsl (cls + min_class_bits) = len ->
      if Queue.length t.classes.(cls) < t.max_per_class then begin
        if !debug_poison then Bytes.fill buf 0 len '\xA5';
        Queue.add buf t.classes.(cls)
      end
    | Some _ | None -> ()

let hits t = t.hits
