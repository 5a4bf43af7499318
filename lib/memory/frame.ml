type state = Free | Allocated | Zombie

(* [unborn] until the first [data]: a frame nobody has touched costs its
   record, not its page. *)
type page = bytes

let unborn : page = Bytes.empty

type t = {
  id : int;
  size : int;
  mutable page : page;
  mutable input_refs : int;
  mutable output_refs : int;
  mutable wired : int;
  mutable state : state;
  mutable pageable : bool;
  mutable known_zero : bool;
}

let make ~id ~size =
  {
    id;
    size;
    page = unborn;
    input_refs = 0;
    output_refs = 0;
    wired = 0;
    state = Free;
    pageable = false;
    known_zero = true;
  }

let data t =
  (* Bytes.make (not Bytes.create): a page is born zero, which is what
     makes the initial known_zero claim true. *)
  if t.page == unborn then t.page <- Bytes.make t.size '\x00';
  t.page

let io_referenced t = t.input_refs > 0 || t.output_refs > 0
let page_size t = t.size
let fill t c = Bytes.fill (data t) 0 t.size c

let blit_in t ~dst_off ~src ~src_off ~len =
  Bytes.blit src src_off (data t) dst_off len

let blit_out t ~src_off ~dst ~dst_off ~len =
  Bytes.blit (data t) src_off dst dst_off len

let copy_contents ~src ~dst = Bytes.blit (data src) 0 (data dst) 0 src.size
