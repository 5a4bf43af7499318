(* Discrete-event engine: one timer wheel and one clock.  Events at the
   same instant run in the order they were scheduled (the wheel breaks
   key ties by insertion order), which makes every run deterministic. *)

type t = { queue : (unit -> unit) Wheel.t; mutable clock : Sim_time.t }

let create () =
  { queue = Wheel.create ~dummy:(fun () -> ()) (); clock = Sim_time.zero }

let now t = t.clock

let at t ~time f =
  let key = Sim_time.to_ns time in
  if key < Sim_time.to_ns t.clock then
    invalid_arg "Engine.at: scheduling in the simulated past";
  Wheel.push t.queue ~key f

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  at t ~time:(Sim_time.add t.clock delay) f

(* Process one event; [false] once the queue is empty. *)
let step t =
  match Wheel.pop t.queue with
  | None -> false
  | Some (time, f) ->
    t.clock <- Sim_time.of_ns time;
    f ();
    true

let run t = while step t do () done

let run_until t limit =
  let limit_ns = Sim_time.to_ns limit in
  let rec loop () =
    match Wheel.peek_key t.queue with
    | Some key when key <= limit_ns ->
      ignore (step t);
      loop ()
    | Some _ | None -> ()
  in
  loop ();
  if Sim_time.compare t.clock limit < 0 then t.clock <- limit

let pending t = Wheel.length t.queue
