(* Reference CRC-32 for the tests: the implementation over boxed
   [Int32] that [Net.Crc32] used before it moved to native ints, kept
   verbatim as the oracle the new one is checked against. *)

type t = int32

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let init = 0xFFFFFFFFl

let update crc data ~off ~len =
  let table = Lazy.force table in
  let crc = ref crc in
  for i = off to off + len - 1 do
    let byte = Char.code (Bytes.get data i) in
    let idx = Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int byte)) 0xFFl) in
    crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8)
  done;
  !crc

let finish crc = Int32.logxor crc 0xFFFFFFFFl
let digest data = finish (update init data ~off:0 ~len:(Bytes.length data))
