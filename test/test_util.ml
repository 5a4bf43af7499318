(* Shared helpers for the test suites. *)

(* Words [f] allocates: minor + major - promoted, read between full
   major collections, so the count does not depend on when the
   collector happens to run.  The tier-1 allocation pins measure with
   this. *)
let words_allocated f =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  Gc.full_major ();
  let w0 = words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.full_major ();
  words () -. w0

let check_bytes msg expected actual =
  if not (Bytes.equal expected actual) then begin
    let hex b lo n =
      let n = min n (Bytes.length b - lo) in
      String.concat " "
        (List.init n (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b (lo + i)))))
    in
    Alcotest.failf "%s: byte mismatch (len %d vs %d)\nexpected[0..16]: %s\nactual[0..16]:   %s"
      msg (Bytes.length expected) (Bytes.length actual) (hex expected 0 16)
      (hex actual 0 16)
  end

(* Run a single one-way datagram transfer and return (latency_us, received
   payload, result).  The receiver preposts; the sender transmits at a
   quiet instant. *)
let one_way ?(mode = Net.Adapter.Early_demux) ?(send_sem = Genie.Semantics.copy)
    ?(recv_sem = Genie.Semantics.copy) ?world ?(len = 8192) ?(app_offset = 0)
    ?(recv_spec = `Buffer) () =
  let w = match world with Some w -> w | None -> Genie.World.create () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:7 ~mode in
  let psize = Genie.Host.page_size w.Genie.World.a in
  let npages_buf = (app_offset + len + psize - 1) / psize in
  (* Sender buffer. *)
  let sa = Genie.Host.new_space w.Genie.World.a in
  let send_buf =
    if Genie.Semantics.system_allocated send_sem then begin
      let r =
        Vm.Address_space.map_region sa ~npages:((len + psize - 1) / psize)
          ~state:Vm.Region.Moved_in
      in
      Genie.Buf.make sa ~addr:(Vm.Address_space.base_addr r ~page_size:psize) ~len
    end
    else begin
      let r = Vm.Address_space.map_region sa ~npages:(npages_buf + 1) in
      Genie.Buf.make sa
        ~addr:(Vm.Address_space.base_addr r ~page_size:psize + app_offset)
        ~len
    end
  in
  Genie.Buf.fill_pattern send_buf ~seed:42;
  (* Receiver target. *)
  let sb = Genie.Host.new_space w.Genie.World.b in
  let recv_spec_v =
    match recv_spec with
    | `Sys -> Genie.Input_path.Sys_alloc { space = sb; len }
    | `Buffer ->
      let r = Vm.Address_space.map_region sb ~npages:(npages_buf + 1) in
      Genie.Input_path.App_buffer
        (Genie.Buf.make sb
           ~addr:(Vm.Address_space.base_addr r ~page_size:psize + app_offset)
           ~len)
  in
  let result = ref None in
  let t_send = ref 0. and t_recv = ref 0. in
  ignore
  (Genie.Endpoint.input eb ~sem:recv_sem ~spec:recv_spec_v ~on_complete:(fun r ->
      t_recv := Genie.Host.now_us w.Genie.World.b;
      result := Some r));
  t_send := Genie.Host.now_us w.Genie.World.a;
  ignore (Genie.Endpoint.output ea ~sem:send_sem ~buf:send_buf ());
  Genie.World.run w;
  match !result with
  | None -> Alcotest.fail "input never completed"
  | Some r ->
    let data =
      match r.Genie.Input_path.buf with
      | Some b -> Genie.Buf.read b
      | None -> Bytes.empty
    in
    (!t_recv -. !t_send, data, r)

let expected ~len = Genie.Buf.expected_pattern ~len ~seed:42
