let cell_payload = 48
let cell_total = 53
let trailer_len = 8
let max_pdu = 65535

let cells_for_len len =
  if len < 0 then invalid_arg "Aal5.cells_for_len: negative length";
  (len + trailer_len + cell_payload - 1) / cell_payload

let wire_bytes len = cells_for_len len * cell_total

type error = [ `Bad_crc | `Bad_length | `Truncated ]

let pp_error fmt e =
  Format.pp_print_string fmt
    (match e with
    | `Bad_crc -> "bad CRC"
    | `Bad_length -> "bad length field"
    | `Truncated -> "truncated PDU")

let crc_iov ?(crc = Crc32.init) iov =
  Memory.Iovec.fold iov ~init:crc ~f:(fun c base ~off ~len ->
      Crc32.update c base ~off ~len)

(* View-native cellification: the payload is never copied; the only
   fresh allocation is the (at most pad + 8 byte) padding-and-trailer
   tail, and each cell is a zero-copy slice of payload ++ tail. *)
let encode_iov payload =
  let len = Memory.Iovec.length payload in
  if len > max_pdu then invalid_arg "Aal5.encode: payload too large";
  let ncells = cells_for_len len in
  let total = ncells * cell_payload in
  let pad = total - len - trailer_len in
  let tail = Bytes.make (pad + trailer_len) '\x00' in
  (* Trailer: UU=0, CPI=0, 16-bit length, CRC-32 over everything that
     precedes the CRC field. *)
  Bytes.set_uint16_be tail (pad + 2) len;
  let crc =
    Crc32.finish
      (Crc32.update (crc_iov payload) tail ~off:0 ~len:(pad + trailer_len - 4))
  in
  Bytes.set_int32_be tail (pad + 4) crc;
  let framed = Memory.Iovec.concat [ payload; Memory.Iovec.of_bytes tail ] in
  List.init ncells (fun i ->
      Memory.Iovec.sub framed ~off:(i * cell_payload) ~len:cell_payload)

let decode_iov cells =
  match cells with
  | [] -> Error `Truncated
  | _ ->
    let framed = Memory.Iovec.concat cells in
    let total = Memory.Iovec.length framed in
    if total < cell_payload || total mod cell_payload <> 0 then Error `Truncated
    else begin
      let trailer =
        Memory.Iovec.to_bytes
          (Memory.Iovec.sub framed ~off:(total - trailer_len) ~len:trailer_len)
      in
      let len = Bytes.get_uint16_be trailer 2 in
      let crc = Bytes.get_int32_be trailer 4 in
      let computed =
        Crc32.finish (crc_iov (Memory.Iovec.sub framed ~off:0 ~len:(total - 4)))
      in
      if computed <> crc then Error `Bad_crc
      else if cells_for_len len * cell_payload <> total then Error `Bad_length
      else Ok (Memory.Iovec.sub framed ~off:0 ~len)
    end
