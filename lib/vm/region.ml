type movability =
  | Unmovable
  | Moved_in
  | Moving_in
  | Moving_out
  | Moved_out
  | Weakly_moved_out

type t = {
  id : int;
  start_vpn : int;
  npages : int;
  mutable state : movability;
  mutable obj : Memory_object.t;
  mutable wired : int;
  mutable wire_log : (int * int * Memory.Frame.t list) list;
  mutable valid : bool;
}

let counter = ref 0

let make ~start_vpn ~npages ~state ~obj =
  incr counter;
  {
    id = !counter;
    start_vpn;
    npages;
    state;
    obj;
    wired = 0;
    wire_log = [];
    valid = true;
  }

let contains_vpn t vpn = vpn >= t.start_vpn && vpn < t.start_vpn + t.npages

let movability_name = function
  | Unmovable -> "unmovable"
  | Moved_in -> "moved-in"
  | Moving_in -> "moving-in"
  | Moving_out -> "moving-out"
  | Moved_out -> "moved-out"
  | Weakly_moved_out -> "weakly-moved-out"
