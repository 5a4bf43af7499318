(* Supercomputing on a cluster of workstations (another of the paper's
   motivating applications): a halo exchange where each node sends a
   slice of its array to its neighbour every iteration.

   Array slices are data-layout-sensitive — exactly the case where
   system-allocated semantics would force application-level copies, and
   where the paper argues application-aligned, application-allocated
   buffering (emulated copy / emulated share) wins.  We run the exchange
   over pooled input buffering with aligned and unaligned application
   buffers.

   Run with: dune exec examples/cluster_exchange.exe *)

module As = Vm.Address_space
module Sem = Genie.Semantics

let psize = 4096
let slice_bytes = 32768 (* an 8-page halo slice *)
let iterations = 20

(* [Error `Again] is transient backpressure: nothing was sent or posted,
   and the caller may retry once memory pressure drains.  The exchange
   keeps one slice in flight per direction, far from exhausting memory,
   so here a rejection is a bug. *)
let admitted what = function
  | Ok _ -> ()
  | Error `Again -> failwith (what ^ " rejected: memory pressure")

let exchange sem ~aligned =
  let world = Genie.World.create () in
  let ea, eb = Genie.World.endpoint_pair world ~vc:1 ~mode:Net.Adapter.Pooled in
  (* Each node's "array": offset chosen so pooled pages either line up
     with the unstripped header or not. *)
  let offset = if aligned then Proto.Dgram_header.length else 0 in
  let make_node host =
    let space = Genie.Host.new_space host in
    let npages = (offset + slice_bytes + psize - 1) / psize in
    let region = As.map_region space ~npages in
    Genie.Buf.make space
      ~addr:(As.base_addr region ~page_size:psize + offset)
      ~len:slice_bytes
  in
  let out_a = make_node world.Genie.World.a in
  let in_a = make_node world.Genie.World.a in
  let in_b = make_node world.Genie.World.b in
  Genie.Buf.fill_pattern out_a ~seed:0;

  let t0 = ref 0. and t1 = ref 0. in
  let iter = ref 0 in
  let rec round () =
    if !iter < iterations then begin
      incr iter;
      (* B computes on the slice and returns it (echo models the
         neighbour's reciprocal send). *)
      admitted "halo input"
        (Genie.Endpoint.input eb ~sem ~spec:(Genie.Input_path.App_buffer in_b)
           ~on_complete:(fun r ->
             if not (Genie.Input_path.ok r) then failwith "exchange failed";
             admitted "echo output" (Genie.Endpoint.output eb ~sem ~buf:in_b ())));
      admitted "halo output" (Genie.Endpoint.output ea ~sem ~buf:out_a ());
      admitted "echo input"
        (Genie.Endpoint.input ea ~sem ~spec:(Genie.Input_path.App_buffer in_a)
           ~on_complete:(fun r ->
             if not (Genie.Input_path.ok r) then failwith "exchange failed";
             round ()))
    end
    else t1 := Genie.Host.now_us world.Genie.World.a
  in
  t0 := Genie.Host.now_us world.Genie.World.a;
  round ();
  Genie.World.run world;
  let per_iter = (!t1 -. !t0) /. float_of_int iterations in
  (* Verify the halo actually made the round trip intact. *)
  if not (Bytes.equal (Genie.Buf.read in_a) (Genie.Buf.expected_pattern ~len:slice_bytes ~seed:0))
  then failwith "halo data corrupted";
  per_iter

let () =
  Printf.printf "Halo exchange of %d KB slices, pooled input buffering\n"
    (slice_bytes / 1024);
  Printf.printf "%-20s %22s %22s\n" "semantics" "aligned buffers" "page-aligned (unaligned)";
  print_endline (String.make 66 '-');
  List.iter
    (fun sem ->
      let a = exchange sem ~aligned:true in
      let u = exchange sem ~aligned:false in
      Printf.printf "%-20s %15.0f us/it %15.0f us/it\n" (Sem.name sem) a u)
    [ Sem.copy; Sem.emulated_copy; Sem.emulated_share ];
  print_newline ();
  print_endline "Aligning application buffers to the I/O module's preferred";
  print_endline "alignment (the unstripped header) lets Genie swap pages instead";
  print_endline "of copying - the Figure 6 vs Figure 7 difference, in an";
  print_endline "application's terms."
