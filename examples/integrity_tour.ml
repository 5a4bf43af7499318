(* A tour of the taxonomy (paper Section 2): for each of the eight
   semantics, send a datagram, misbehave like a real application would —
   overwrite the output buffer right after the call — and show what the
   receiver observed and what happened to the sender's buffer.

   Run with: dune exec examples/integrity_tour.exe *)

module As = Vm.Address_space
module Sem = Genie.Semantics

let psize = 4096
let len = 4 * psize

let run_one sem =
  let world = Genie.World.create () in
  let ea, eb = Genie.World.endpoint_pair world ~vc:1 ~mode:Net.Adapter.Early_demux in

  (* Output buffer: system-allocated semantics need a moved-in region. *)
  let space_a = Genie.Host.new_space world.Genie.World.a in
  let state =
    if Sem.system_allocated sem then Vm.Region.Moved_in else Vm.Region.Unmovable
  in
  let region = As.map_region space_a ~npages:(len / psize) ~state in
  let buf =
    Genie.Buf.make space_a ~addr:(As.base_addr region ~page_size:psize) ~len
  in
  Genie.Buf.fill_pattern buf ~seed:1;

  (* Input target: system-allocated semantics return the location. *)
  let spec =
    if Sem.system_allocated sem then
      Genie.Input_path.Sys_alloc
        { space = Genie.Host.new_space world.Genie.World.b; len }
    else begin
      let space_b = Genie.Host.new_space world.Genie.World.b in
      let r = As.map_region space_b ~npages:(len / psize) in
      Genie.Input_path.App_buffer
        (Genie.Buf.make space_b ~addr:(As.base_addr r ~page_size:psize) ~len)
    end
  in
  let received = ref None in
  (* [Error `Again] is backpressure under memory exhaustion: nothing was
     posted or sent, and the receiver below then sees nothing. *)
  (match
     Genie.Endpoint.input eb ~sem ~spec ~on_complete:(fun r ->
         received := r.Genie.Input_path.buf)
   with
  | Ok _ -> ()
  | Error `Again -> print_endline "input rejected: memory pressure");
  (match Genie.Endpoint.output ea ~sem ~buf () with
  | Ok _ -> ()
  | Error `Again -> print_endline "output rejected: memory pressure");

  (* The application immediately overwrites its buffer. *)
  let overwrite =
    try
      Genie.Buf.write buf (Bytes.make len 'X');
      "allowed"
    with
    | Vm.Vm_error.Unrecoverable_fault _ -> "unrecoverable fault (region hidden)"
    | Vm.Vm_error.Segmentation_fault _ -> "segmentation fault (region removed)"
  in
  Genie.World.run world;

  let receiver_saw =
    match !received with
    | Some b ->
      if Bytes.equal (Genie.Buf.read b) (Genie.Buf.expected_pattern ~len ~seed:1)
      then "original data (integrity preserved)"
      else "CORRUPTED data (the overwrite reached the wire)"
    | None -> "nothing"
  in
  Printf.printf "%-20s  alloc=%-11s integrity=%-6s\n" (Sem.name sem)
    (match sem.Sem.alloc with
    | Sem.Application -> "application"
    | Sem.System -> "system")
    (match sem.Sem.integrity with Sem.Strong -> "strong" | Sem.Weak -> "weak");
  Printf.printf "    overwrite after output: %s\n" overwrite;
  Printf.printf "    receiver saw:           %s\n\n" receiver_saw

let () =
  print_endline "The taxonomy of I/O data passing semantics (OSDI '96)";
  print_endline "======================================================\n";
  List.iter run_one Sem.all;
  print_endline "Summary: strong-integrity semantics guarantee the receiver the";
  print_endline "data present at the time of the output call; system-allocated";
  print_endline "semantics take the buffer away (move) or hide it (emulated";
  print_endline "move).  Only emulated copy keeps the exact API and guarantees";
  print_endline "of Unix copy semantics while avoiding the copies."
