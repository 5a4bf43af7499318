(* Reference for [Genie.Buf.expected_pattern]: the per-byte definition
   it used before it was built from 256-byte period rows, kept as the
   oracle the new one is checked against. *)

let expected ~len ~seed =
  Bytes.init len (fun i -> Char.chr ((i * 131 + seed * 89 + i / 4096) land 0xFF))
