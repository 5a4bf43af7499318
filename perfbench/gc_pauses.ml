(* GC pause time read from the runtime's own event ring (OCaml 5
   [Runtime_events]).  On a single-domain program every runtime phase is
   collector or stop-the-world work that pauses the mutator; nested
   phases are merged, so the total is the wall time during which at
   least one phase was open.  Started only by the traced run: the ring
   lives in a [<pid>.events] file in the working directory, which the
   runtime removes at exit. *)

type t = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  total_ns : int ref;
  lost : int ref;
}

let start () =
  Runtime_events.start ();
  let depth = ref 0 and since = ref 0L and total_ns = ref 0 and lost = ref 0 in
  let ns ts = Runtime_events.Timestamp.to_int64 ts in
  let runtime_begin _ ts _ =
    if !depth = 0 then since := ns ts;
    incr depth
  in
  (* An end whose begin predates the cursor is dropped. *)
  let runtime_end _ ts _ =
    if !depth > 0 then begin
      decr depth;
      if !depth = 0 then
        total_ns := !total_ns + Int64.to_int (Int64.sub (ns ts) !since)
    end
  in
  let lost_events _ n = lost := !lost + n in
  let callbacks =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()
  in
  { cursor = Runtime_events.create_cursor None; callbacks; total_ns; lost }

(* Drain the ring; call often enough that it never wraps. *)
let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None : int)

let total_ns t =
  poll t;
  !(t.total_ns)

let lost t = !(t.lost)
