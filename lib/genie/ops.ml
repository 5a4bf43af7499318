module C = Machine.Cost_model
module T = Simcore.Tracer

type t = {
  cpu : Simcore.Cpu.t;
  costs : Machine.Cost_model.t;
  mutable trace : Simcore.Tracer.scope option;
}

let create cpu costs = { cpu; costs; trace = None }
let set_trace_scope t scope = t.trace <- Some scope
let page_size t = (Machine.Cost_model.spec t.costs).Machine.Machine_spec.page_size

let charge t op ~unit =
  let bytes =
    match unit with `Bytes n -> n | `Pages n -> n * page_size t
  in
  let cost = Machine.Cost_model.cost t.costs op ~bytes in
  let finish = Simcore.Cpu.charge t.cpu ~cost in
  match t.trace with
  | None -> ()
  | Some s ->
    if T.on s then
      T.complete s
        ~start:(Simcore.Sim_time.diff finish cost)
        ~dur:cost
        ~args:[ ("bytes", T.Int bytes) ]
        (C.op_name op);
    if T.counting s then
      match op with
      | C.Copyin | C.Copyout ->
        T.add_counter s "copies";
        T.add_counter s ~n:bytes "copied_bytes"
      | C.Wire -> T.add_counter s ~n:(bytes / page_size t) "wires"
      | _ -> ()

(* One CPU-queue update and one trace event for [n] identical charges.
   Exactness: [Cpu.charge] adds integer nanosecond costs, so charging
   [n * cost] once leaves the same [busy_until]/[busy_total] as [n]
   adjacent charges of [cost]; the event's [n] argument lets {!sample}
   recover the per-operation cost, and the counters get the same
   totals, so the amortization is invisible to every simulated metric
   (law-checked in the ring test suite). *)
let charge_n t op ~unit ~n =
  if n < 0 then invalid_arg "Ops.charge_n: negative count";
  if n > 0 then begin
    let bytes =
      match unit with `Bytes b -> b | `Pages p -> p * page_size t
    in
    let cost = Machine.Cost_model.cost t.costs op ~bytes in
    let total = n * cost in
    let finish = Simcore.Cpu.charge t.cpu ~cost:total in
    match t.trace with
    | None -> ()
    | Some s ->
      if T.on s then
        T.complete s
          ~start:(Simcore.Sim_time.diff finish total)
          ~dur:total
          ~args:[ ("bytes", T.Int bytes); ("n", T.Int n) ]
          (C.op_name op);
      if T.counting s then (
        match op with
        | C.Copyin | C.Copyout ->
          T.add_counter s ~n "copies";
          T.add_counter s ~n:(n * bytes) "copied_bytes"
        | C.Wire -> T.add_counter s ~n:(n * (bytes / page_size t)) "wires"
        | _ -> ())
  end

let completion_time t = Simcore.Cpu.busy_until t.cpu

let op_of_name =
  let by_name = Hashtbl.create 64 in
  List.iter (fun op -> Hashtbl.replace by_name (C.op_name op) op) C.all_ops;
  Hashtbl.find_opt by_name

let sample (ev : T.event) =
  match ev.T.kind with
  | T.Complete dur -> (
    match (op_of_name ev.T.name, ev.T.args) with
    | Some op, [ ("bytes", T.Int bytes) ] -> Some (op, bytes, dur, 1)
    | Some op, [ ("bytes", T.Int bytes); ("n", T.Int n) ] ->
      Some (op, bytes, dur / n, n)
    | _ -> None)
  | _ -> None
