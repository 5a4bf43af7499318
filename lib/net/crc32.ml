type t = int32

(* Entry [b] is the CRC contribution of byte [b], as a native int. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let init = 0xFFFFFFFFl

(* One byte per step, over native ints.  Each step waits on the one
   before, so speed is set by load latency rather than by how much of
   the core the loop gets, and it holds when other work shares the core.
   Slicing-by-8 is 3-4x faster on a quiet core, but its speed swung by
   14-20% from one 50 ms window to the next on a shared 2-core x86_64
   VM, where this loop varied by 3-5% (docs/PERFORMANCE.md). *)
let update crc data ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length data - len then
    invalid_arg "Crc32.update: range out of bounds";
  let c = ref (Int32.to_int crc land 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    (* The index is masked to a byte, so the lookup stays inside [table]. *)
    let b = (!c lxor Char.code (Bytes.unsafe_get data i)) land 0xFF in
    c := Array.unsafe_get table b lxor (!c lsr 8)
  done;
  Int32.of_int !c

let finish crc = Int32.logxor crc 0xFFFFFFFFl
let digest data = finish (update init data ~off:0 ~len:(Bytes.length data))
