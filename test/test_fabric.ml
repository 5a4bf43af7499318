(* Datacenter-scale fabric engine: the generation-stamped flow table
   and the N-host fan-in scenario generator. *)

module FT = Genie.Flow_table
module Fabric = Workload.Fabric
module Load_sweep = Workload.Load_sweep
module S = Stats.Streaming_summary

(* {1 Flow table} *)

let test_flow_table_basics () =
  let t = FT.create ~initial:2 ~dummy:"" () in
  let h1 = FT.alloc t "one" in
  let h2 = FT.alloc t "two" in
  Alcotest.(check (option string)) "get live" (Some "one") (FT.get t h1);
  Alcotest.(check int) "two live" 2 (FT.live t);
  Alcotest.(check bool) "free succeeds" true (FT.free t h1);
  Alcotest.(check (option string)) "stale handle is inert" None (FT.get t h1);
  Alcotest.(check bool) "double free is inert" false (FT.free t h1);
  let h3 = FT.alloc t "three" in
  Alcotest.(check int) "slot recycled, not grown" 2 (FT.capacity t);
  Alcotest.(check bool) "recycled slot, fresh generation" true (h3 <> h1);
  Alcotest.(check (option string)) "old handle misses new tenant" None
    (FT.get t h1);
  Alcotest.(check (option string)) "new tenant reachable" (Some "three")
    (FT.get t h3);
  Alcotest.(check int) "high water" 2 (FT.high_water t);
  Alcotest.(check int) "total allocs" 3 (FT.allocs t);
  ignore h2

(* Model-based law: drive the table with a random alloc/free schedule
   against an assoc-list model keyed by handle.  Every live handle maps
   to its payload, every freed handle is permanently inert, and
   capacity stays bounded by the high-water mark (memory is O(active),
   not O(allocs)). *)
let flow_table_matches_model =
  QCheck.Test.make ~name:"flow table matches a map model under random churn"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 400) (int_bound 99))
    (fun script ->
      let t = FT.create ~initial:4 ~dummy:(-1) () in
      let live = ref [] (* (handle, payload) *) and dead = ref [] in
      let next = ref 0 in
      List.iter
        (fun cmd ->
          if cmd < 60 || !live = [] then begin
            incr next;
            let h = FT.alloc t !next in
            assert (not (List.mem_assoc h !live));
            live := (h, !next) :: !live
          end
          else begin
            (* free the cmd-th live handle *)
            let i = cmd mod List.length !live in
            let h, _ = List.nth !live i in
            assert (FT.free t h);
            live := List.remove_assoc h !live;
            dead := h :: !dead
          end)
        script;
      List.for_all (fun (h, v) -> FT.get t h = Some v) !live
      && List.for_all
           (fun h -> FT.get t h = None && not (FT.free t h) && not (FT.is_live t h))
           !dead
      && FT.live t = List.length !live
      && FT.high_water t <= FT.capacity t
      && FT.allocs t = !next)

(* {1 Fabric scenario} *)

(* Small but non-trivial: enough flows to churn every circuit a few
   times, small enough for the default test tier. *)
let small =
  { Fabric.default with Fabric.flows = 400; ports = 2; circuits_per_port = 8 }

let test_fabric_accounting () =
  let o = Fabric.run small in
  Alcotest.(check int) "every arrival accounted" o.Fabric.offered
    (o.Fabric.accepted + o.Fabric.rejected);
  Alcotest.(check int) "every accepted flow drained" o.Fabric.accepted
    o.Fabric.completed;
  Alcotest.(check int) "offered what we asked" 400 o.Fabric.offered;
  Alcotest.(check bool) "bytes flowed" true (o.Fabric.rx_bytes > 0);
  Alcotest.(check int) "one sojourn sample per completed flow"
    o.Fabric.completed
    (S.count o.Fabric.sojourn_us);
  Alcotest.(check bool) "active flows capped by the circuit pools" true
    (o.Fabric.active_high_water <= 2 * 8);
  Alcotest.(check bool) "table memory capped by the pools" true
    (o.Fabric.table_capacity <= 2 * 8 * 2)

let test_fabric_digest_replay () =
  let o1 = Fabric.run small and o1' = Fabric.run small in
  Alcotest.(check string) "replay is deterministic" o1.Fabric.digest
    o1'.Fabric.digest;
  Alcotest.(check int) "same completions" o1.Fabric.completed
    o1'.Fabric.completed;
  let od =
    Fabric.run { small with Fabric.seed = small.Fabric.seed + 1 }
  in
  Alcotest.(check bool) "distinct seeds, distinct digests" true
    (od.Fabric.digest <> o1.Fabric.digest)

let test_fabric_overload_rejects () =
  (* One circuit per port at heavy load: arrivals must find the pool
     busy and be refused, and the engine must still drain cleanly. *)
  let o =
    Fabric.run
      { small with Fabric.circuits_per_port = 1; load = 1.5; flows = 200 }
  in
  Alcotest.(check bool) "overload refuses connections" true
    (o.Fabric.rejected > 0);
  Alcotest.(check int) "books still balance" o.Fabric.offered
    (o.Fabric.accepted + o.Fabric.rejected)

let test_fabric_knee () =
  let cfg = { small with Fabric.flows = 150 } in
  let knee, probes =
    Load_sweep.fabric_knee ~iters:2 cfg ~p99_limit_us:50_000. ~lo:0.2 ~hi:1.5
  in
  Alcotest.(check bool) "knee meets its own budget or is the lo endpoint" true
    (Float.is_nan knee.Load_sweep.p99_us
    || knee.Load_sweep.p99_us <= 50_000.
    || knee.Load_sweep.load = 0.2);
  Alcotest.(check bool) "probes recorded" true (List.length probes >= 2);
  List.iter
    (fun (p : Load_sweep.fabric_point) ->
      Alcotest.(check bool) "probe loads within the bracket" true
        (p.Load_sweep.load >= 0.2 && p.Load_sweep.load <= 1.5))
    probes

(* {1 Pinned results}

   The fabric and load-sweep models fix their flow-size law, credit
   window, retry backoff, link and machine as constants.  These pins
   fail if any of them, or the order of the Rng draws, moves.  Floats
   compare bit for bit through their [%h] spelling. *)

let hex = Printf.sprintf "%h"

let test_fabric_digest_pin () =
  Alcotest.(check string) "small fabric digest" "329bf630e120c3a5d130d1a5da088a0f"
    (Fabric.run small).Fabric.digest

let test_load_sweep_pin () =
  let o = Load_sweep.run ~sem:Genie.Semantics.copy ~offered_mbps:450. in
  (* BENCH_load.json's load.copy.450mbps.delivered_mbps *)
  Alcotest.(check string) "copy at 450 Mbps" "0x1.44297ae65b3b8p+8"
    (hex o.Load_sweep.delivered_mbps)

let test_fabric_curve_pin () =
  match Load_sweep.fabric_curve small ~loads:[| 0.5; 0.9 |] with
  | [| p5; p9 |] ->
    let check what expect (p : Load_sweep.fabric_point) v =
      Alcotest.(check string)
        (Printf.sprintf "%s at load %g" what p.Load_sweep.load)
        expect (hex v)
    in
    check "delivered_mbps" "0x1.15a3b4a342c54p+7" p5 p5.Load_sweep.delivered_mbps;
    check "delivered_mbps" "0x1.9a81458d42794p+7" p9 p9.Load_sweep.delivered_mbps;
    check "p99_us" (hex 15_424.) p5 p5.Load_sweep.p99_us;
    check "p99_us" (hex 33_536.) p9 p9.Load_sweep.p99_us;
    check "rejected_frac" (hex 0.) p5 p5.Load_sweep.rejected_frac;
    check "rejected_frac" "0x1.d70a3d70a3d71p-5" p9 p9.Load_sweep.rejected_frac
  | points -> Alcotest.failf "expected 2 curve points, got %d" (Array.length points)

let suite =
  [
    Alcotest.test_case "flow table alloc/free/recycle" `Quick
      test_flow_table_basics;
    QCheck_alcotest.to_alcotest flow_table_matches_model;
    Alcotest.test_case "fabric accounting identities" `Quick
      test_fabric_accounting;
    Alcotest.test_case "fabric digest replay" `Quick test_fabric_digest_replay;
    Alcotest.test_case "fabric overload rejects" `Quick
      test_fabric_overload_rejects;
    Alcotest.test_case "fabric load knee" `Quick test_fabric_knee;
    Alcotest.test_case "fabric digest pin" `Quick test_fabric_digest_pin;
    Alcotest.test_case "load sweep delivered pin" `Quick test_load_sweep_pin;
    Alcotest.test_case "fabric curve pin" `Quick test_fabric_curve_pin;
  ]
