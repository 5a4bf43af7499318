type t = { space : Vm.Address_space.t; addr : int; len : int }

let make space ~addr ~len =
  if addr < 0 || len < 0 then invalid_arg "Buf.make";
  { space; addr; len }

let map ?state ?(offset = 0) space ~len =
  let psize = Vm.Address_space.page_size space in
  let region =
    Vm.Address_space.map_region ?state space
      ~npages:((offset + len + psize - 1) / psize)
  in
  make space ~addr:(Vm.Address_space.base_addr region ~page_size:psize + offset) ~len

let page_offset t = t.addr mod Vm.Address_space.page_size t.space

let pages t =
  let psize = Vm.Address_space.page_size t.space in
  let first = t.addr / psize and last = (t.addr + t.len - 1) / psize in
  if t.len = 0 then 0 else last - first + 1

let read t = Vm.Address_space.read t.space ~addr:t.addr ~len:t.len
let write t data = Vm.Address_space.write t.space ~addr:t.addr data

(* Byte [i] of the pattern is [(131 i + 89 seed + i / 4096) land 0xFF].
   131 * 256 is a multiple of 256, so within the 4,096-byte block
   [i / 4096] byte [i] repeats every 256 bytes: each block is one
   256-byte row, computed once and blitted sixteen times. *)
let pattern_row row ~seed ~block =
  for m = 0 to 255 do
    Bytes.set row m (Char.chr ((m * 131 + seed * 89 + block) land 0xFF))
  done

(* Pattern bytes [pos, pos + len) into [dst] at [dst_off], through the
   256-byte scratch [row]. *)
let blit_pattern row ~seed ~pos ~len dst ~dst_off =
  let stop = pos + len in
  let i = ref pos in
  while !i < stop do
    if !i = pos || !i land 4095 = 0 then pattern_row row ~seed ~block:(!i / 4096);
    let m = !i land 255 in
    let n = Stdlib.min (256 - m) (stop - !i) in
    Bytes.blit row m dst (dst_off + !i - pos) n;
    i := !i + n
  done

let expected_pattern ~len ~seed =
  let b = Bytes.create len in
  blit_pattern (Bytes.create 256) ~seed ~pos:0 ~len b ~dst_off:0;
  b

let fill_pattern t ~seed =
  let row = Bytes.create 256 in
  Vm.Address_space.iter_write t.space ~addr:t.addr ~len:t.len
    (fun ~buf_off frame ~off ~len ->
      blit_pattern row ~seed ~pos:buf_off ~len (Memory.Frame.data frame)
        ~dst_off:off)
