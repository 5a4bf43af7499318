type subsystem = Vm | Mem | Genie | Net | Store | Sim

let subsystem_name = function
  | Vm -> "vm"
  | Mem -> "mem"
  | Genie -> "genie"
  | Net -> "net"
  | Store -> "store"
  | Sim -> "sim"

type arg = Int of int | Str of string | Bool of bool | Float of float

type kind =
  | Instant
  | Begin of int
  | End of int
  | Complete of Sim_time.t
  | Counter of int

type event = {
  seq : int;
  time : Sim_time.t;
  host : string;
  sub : subsystem;
  name : string;
  kind : kind;
  args : (string * arg) list;
}

type t = {
  mutable enabled : bool;
  mutable count_only : bool;
      (** counters accumulate but no events are recorded: O(1) memory,
          so long adaptive runs can sample counters without retaining an
          event history *)
  mutable events : event list;  (** newest first *)
  mutable next_seq : int;
  mutable next_span : int;
  mutable clock : unit -> Sim_time.t;
  counters : (string * string, int ref) Hashtbl.t;
}

let create ?(enabled = false) () =
  {
    enabled;
    count_only = false;
    events = [];
    next_seq = 0;
    next_span = 1;
    clock = (fun () -> Sim_time.zero);
    counters = Hashtbl.create 32;
  }

let enable t = t.enabled <- true
let disable t = t.enabled <- false
let enable_counters t = t.count_only <- true
let set_clock t clock = t.clock <- clock

let push t ~time ~host ~sub ~name ~kind ~args =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.events <- { seq; time; host; sub; name; kind; args } :: t.events

type scope = { t : t; host : string; sub : subsystem }

let scope t ~host ~sub = { t; host; sub }
let on s = s.t.enabled
let counting s = s.t.enabled || s.t.count_only

let instant s ?(args = []) name =
  if s.t.enabled then
    push s.t ~time:(s.t.clock ()) ~host:s.host ~sub:s.sub ~name ~kind:Instant
      ~args

let span_begin s ?(args = []) name =
  if s.t.enabled then begin
    let id = s.t.next_span in
    s.t.next_span <- id + 1;
    push s.t ~time:(s.t.clock ()) ~host:s.host ~sub:s.sub ~name
      ~kind:(Begin id) ~args;
    id
  end
  else 0

let span_end s ?(args = []) ~id name =
  if s.t.enabled && id <> 0 then
    push s.t ~time:(s.t.clock ()) ~host:s.host ~sub:s.sub ~name ~kind:(End id)
      ~args

let complete s ?(args = []) ~start ~dur name =
  if s.t.enabled then
    push s.t ~time:start ~host:s.host ~sub:s.sub ~name ~kind:(Complete dur)
      ~args

let cell t ~host name =
  match Hashtbl.find_opt t.counters (host, name) with
  | Some c -> c
  | None ->
    let c = ref 0 in
    Hashtbl.add t.counters (host, name) c;
    c

let add_counter s ?(n = 1) name =
  if s.t.enabled || s.t.count_only then begin
    let cell = cell s.t ~host:s.host name in
    cell := !cell + n;
    if s.t.enabled then
      push s.t ~time:(s.t.clock ()) ~host:s.host ~sub:s.sub ~name
        ~kind:(Counter !cell)
        ~args:[ ("delta", Int n) ]
  end

let typed_events t = List.rev t.events

let counter t ~host name =
  match Hashtbl.find_opt t.counters (host, name) with
  | Some c -> !c
  | None -> 0

let counters t =
  Hashtbl.fold (fun (host, name) c acc -> (host, name, !c) :: acc) t.counters []
  |> List.sort compare

(* A probe pins the [int ref] cells of a fixed (host, name) set once, so
   per-epoch consumers (the adaptive controller, the fuzzer's event
   table) read or delta N counters in O(N) dereferences instead of
   rescanning the whole counter table. *)
type probe = { names : string array; cells : int ref array; last : int array }

let probe t ~host names =
  let names = Array.of_list names in
  {
    names;
    cells = Array.map (fun name -> cell t ~host name) names;
    last = Array.make (Array.length names) 0;
  }

let probe_names p = Array.to_list p.names
let probe_read p i = !(p.cells.(i))

let probe_delta p =
  Array.mapi
    (fun i c ->
      let v = !c in
      let d = v - p.last.(i) in
      p.last.(i) <- v;
      d)
    p.cells

let clear t =
  t.events <- [];
  t.next_seq <- 0;
  t.next_span <- 1;
  Hashtbl.reset t.counters

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let arg_to_string = function
  | Int n -> string_of_int n
  | Str s -> s
  | Bool b -> string_of_bool b
  | Float f -> Printf.sprintf "%g" f

let render (ev : event) =
  let b = Buffer.create 48 in
  if ev.host <> "" then begin
    Buffer.add_char b '[';
    Buffer.add_string b ev.host;
    Buffer.add_char b '/';
    Buffer.add_string b (subsystem_name ev.sub);
    Buffer.add_string b "] "
  end;
  Buffer.add_string b ev.name;
  (match ev.kind with
  | Instant -> ()
  | Begin id -> Buffer.add_string b (Printf.sprintf " begin#%d" id)
  | End id -> Buffer.add_string b (Printf.sprintf " end#%d" id)
  | Complete dur ->
    Buffer.add_string b (Printf.sprintf " dur=%.3fus" (Sim_time.to_us dur))
  | Counter v -> Buffer.add_string b (Printf.sprintf " = %d" v));
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ' ';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b (arg_to_string v))
    ev.args;
  Buffer.contents b

let tail t n =
  let rec take k = function
    | x :: tl when k > 0 -> x :: take (k - 1) tl
    | _ -> []
  in
  List.rev (take (max n 0) t.events)
