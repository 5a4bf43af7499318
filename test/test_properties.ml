(* Cross-cutting property tests on the model layers. *)

module C = Machine.Cost_model
module Sem = Genie.Semantics

let costs = C.create Machine.Machine_spec.micron_p166

let cost_monotone_in_bytes =
  QCheck.Test.make ~name:"op cost is monotone in bytes" ~count:200
    QCheck.(pair (int_bound 25) (pair (int_bound 100_000) (int_bound 100_000)))
    (fun (op_idx, (b1, b2)) ->
      let op = List.nth C.all_ops (op_idx mod List.length C.all_ops) in
      let lo = min b1 b2 and hi = max b1 b2 in
      Simcore.Sim_time.compare (C.cost costs op ~bytes:lo) (C.cost costs op ~bytes:hi)
      <= 0)

let estimate_monotone_in_len =
  QCheck.Test.make ~name:"estimated latency is monotone in length" ~count:100
    QCheck.(triple (int_bound 7) (int_range 64 60_000) (int_range 64 60_000))
    (fun (sem_idx, l1, l2) ->
      let sem = List.nth Sem.all sem_idx in
      let lo = min l1 l2 and hi = max l1 l2 in
      let e len =
        Genie.Stage_cost.latency_us costs Net.Net_params.oc3
          ~scheme:Genie.Stage_cost.Early_demux ~sem ~len
      in
      e lo <= e hi +. 1e-9)

let estimate_copy_dominates =
  QCheck.Test.make ~name:"copy is never estimated faster at page multiples"
    ~count:60
    QCheck.(pair (int_bound 7) (int_range 1 15))
    (fun (sem_idx, pages) ->
      let sem = List.nth Sem.all sem_idx in
      let len = pages * 4096 in
      let e s =
        Genie.Stage_cost.latency_us costs Net.Net_params.oc3
          ~scheme:Genie.Stage_cost.Early_demux ~sem:s ~len
      in
      e sem <= e Sem.copy +. 1e-9)

let mixed_composition_consistent =
  QCheck.Test.make ~name:"mixed estimate equals own estimate on the diagonal"
    ~count:50
    QCheck.(pair (int_bound 7) (int_range 64 60_000))
    (fun (sem_idx, len) ->
      let sem = List.nth Sem.all sem_idx in
      let a =
        Genie.Stage_cost.latency_us costs Net.Net_params.oc3
          ~scheme:Genie.Stage_cost.Early_demux ~sem ~len
      and b =
        Genie.Stage_cost.mixed_latency_us costs Net.Net_params.oc3
          ~scheme:Genie.Stage_cost.Early_demux ~send_sem:sem ~recv_sem:sem ~len
      in
      Float.abs (a -. b) < 1e-6)

let aal5_wire_bytes_monotone =
  QCheck.Test.make ~name:"aal5 wire bytes monotone and cell-quantised" ~count:200
    QCheck.(int_range 1 60_000)
    (fun len ->
      Net.Aal5.wire_bytes len mod Net.Aal5.cell_total = 0
      && Net.Aal5.wire_bytes len >= Net.Aal5.wire_bytes (max 1 (len - 1)))

let semantics_dimensions_complete =
  QCheck.Test.make ~name:"taxonomy covers all 2x2x2 corners" ~count:1 QCheck.unit
    (fun () ->
      let corners =
        List.concat_map
          (fun alloc ->
            List.concat_map
              (fun integrity ->
                List.map
                  (fun emulated -> { Sem.alloc; integrity; emulated })
                  [ false; true ])
              [ Sem.Strong; Sem.Weak ])
          [ Sem.Application; Sem.System ]
      in
      List.for_all (fun c -> List.exists (Sem.equal c) Sem.all) corners
      && List.length Sem.all = 8)

let semantics_name_roundtrip =
  QCheck.Test.make ~name:"semantics name round-trips through of_name"
    ~count:50
    QCheck.(int_bound 7)
    (fun i ->
      let sem = List.nth Sem.all i in
      match Sem.of_name (Sem.name sem) with
      | Some sem' -> Sem.equal sem sem'
      | None -> false)

(* The complement of the round-trip law: of_name accepts exactly the
   eight corner names modulo its documented leniency (surrounding
   whitespace and ASCII case), and rejects everything else.  Candidates
   mix random junk with near-misses of real names: case changes and
   padding must canonicalize; hyphenation, prefixes and truncations
   must be rejected. *)
let semantics_unknown_name_rejected =
  let corner_names = List.map Sem.name Sem.all in
  let near_miss =
    QCheck.Gen.(
      oneofl corner_names >>= fun base ->
      oneofl
        [
          String.capitalize_ascii base;
          String.uppercase_ascii base;
          base ^ " ";
          " " ^ base;
          base ^ "x";
          String.sub base 0 (String.length base - 1);
          String.concat "-" (String.split_on_char ' ' base);
        ])
  in
  let candidate =
    QCheck.make
      ~print:(Printf.sprintf "%S")
      QCheck.Gen.(oneof [ near_miss; string_size (int_range 0 24) ])
  in
  QCheck.Test.make
    ~name:"of_name accepts exactly the corner names modulo case and trim"
    ~count:300 candidate (fun s ->
      let canon = String.lowercase_ascii (String.trim s) in
      match Sem.of_name s with
      | Some sem -> Sem.name sem = canon
      | None -> not (List.mem canon corner_names))

let page_sizes = [ 4096; 8192; 16384 ]

let thresholds_reverse_above_half_page =
  QCheck.Test.make
    ~name:"reverse-copyout threshold strictly above half a page" ~count:1
    QCheck.unit (fun () ->
      List.for_all
        (fun p ->
          let t = Genie.Thresholds.for_page_size p in
          t.Genie.Thresholds.reverse_copyout > p / 2)
        page_sizes)

let thresholds_scale_monotonically =
  QCheck.Test.make
    ~name:"thresholds scale monotonically with page size" ~count:1 QCheck.unit
    (fun () ->
      let ts = List.map Genie.Thresholds.for_page_size page_sizes in
      let rec adjacent = function
        | a :: (b :: _ as rest) -> (a, b) :: adjacent rest
        | _ -> []
      in
      List.for_all
        (fun (small, big) ->
          let open Genie.Thresholds in
          small.copy_out_emulated_copy < big.copy_out_emulated_copy
          && small.copy_out_emulated_share < big.copy_out_emulated_share
          && small.reverse_copyout < big.reverse_copyout
          (* pool fallback is a frame count, not a byte length: it must
             not scale with the page size. *)
          && small.pool_fallback_frames = big.pool_fallback_frames)
        (adjacent ts)
      && Genie.Thresholds.for_page_size 4096 = Genie.Thresholds.default)

let outcome_retryable_only_again =
  QCheck.Test.make ~name:"outcome retryable iff transient `Again" ~count:100
    QCheck.(int_bound 1000)
    (fun r ->
      Genie.Outcome.retryable `Again
      && (not (Genie.Outcome.retryable (`Gave_up r)))
      && not (Genie.Outcome.retryable `Crc_dropped))

let outcome_to_string_total =
  QCheck.Test.make
    ~name:"outcome to_string covers every variant and keeps the payload"
    ~count:100
    QCheck.(int_bound 1000)
    (fun r ->
      Genie.Outcome.to_string `Again = "again"
      && Genie.Outcome.to_string `Crc_dropped = "crc_dropped"
      && Genie.Outcome.to_string (`Gave_up r) = Printf.sprintf "gave_up(%d)" r)

let flip_bit data bit =
  let i = bit / 8 and k = bit mod 8 in
  Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor (1 lsl k)))

let checksum_detects_bit_flips =
  QCheck.Test.make ~name:"rfc1071 checksum detects single-bit flips"
    ~count:200
    QCheck.(pair (int_range 1 2048) (int_bound 1_000_000))
    (fun (len, r) ->
      let data = Bytes.init len (fun i -> Char.chr ((i * 7 + 13) land 0xff)) in
      let expect = Proto.Checksum.compute data ~off:0 ~len in
      flip_bit data (r mod (len * 8));
      not (Proto.Checksum.verify data ~off:0 ~len ~expect))

let aal5_crc_detects_bit_flips =
  QCheck.Test.make ~name:"aal5 crc32 detects single-bit flips" ~count:100
    QCheck.(pair (int_range 1 8192) (int_bound 1_000_000))
    (fun (len, r) ->
      let payload = Bytes.init len (fun i -> Char.chr ((i * 31 + 5) land 0xff)) in
      let flat =
        Memory.Iovec.to_bytes
          (Memory.Iovec.concat (Net.Aal5.encode_iov (Memory.Iovec.of_bytes payload)))
      in
      flip_bit flat (r mod (Bytes.length flat * 8));
      let ncells = Bytes.length flat / Net.Aal5.cell_payload in
      let cells =
        List.init ncells (fun i ->
            Memory.Iovec.of_bytes
              (Bytes.sub flat (i * Net.Aal5.cell_payload) Net.Aal5.cell_payload))
      in
      Result.is_error (Net.Aal5.decode_iov cells))

(* Both pattern builders against the per-byte oracle: the row-built
   [expected_pattern], and [fill_pattern] storing into the frames of a
   buffer that starts anywhere in its first page.  Seeds range over
   every int, negative ones included. *)
let buf_pattern_roundtrip =
  QCheck.Test.make ~name:"buffer pattern read/write roundtrip" ~count:100
    QCheck.(triple (int_bound 70_000) (int_bound 4095) int)
    (fun (len, off, seed) ->
      let vm =
        Vm.Vm_sys.create
          { Machine.Machine_spec.micron_p166 with Machine.Machine_spec.memory_mb = 2 }
      in
      let space = Vm.Address_space.create vm in
      let npages = Stdlib.max 1 ((off + len + 4095) / 4096) in
      let region = Vm.Address_space.map_region space ~npages in
      let buf =
        Genie.Buf.make space
          ~addr:(Vm.Address_space.base_addr region ~page_size:4096 + off)
          ~len
      in
      let oracle = Pattern_oracle.expected ~len ~seed in
      Genie.Buf.fill_pattern buf ~seed;
      Bytes.equal (Genie.Buf.expected_pattern ~len ~seed) oracle
      && Bytes.equal (Genie.Buf.read buf) oracle)

(* Iovec views must be indistinguishable from the bytes they describe,
   under arbitrary chopping, recombination and slicing. *)
let iovec_matches_bytes =
  QCheck.Test.make ~name:"iovec sub/concat/blit equals materialized bytes"
    ~count:300
    QCheck.(triple (int_range 0 4096) (int_bound 1_000_000) small_int)
    (fun (len, seed, nops) ->
      let reference = Bytes.init len (fun i -> Char.chr ((i * 31 + seed) land 0xFF)) in
      (* Deterministic pseudo-random stream derived from the seed. *)
      let state = ref (seed lor 1) in
      let rand bound =
        state := (!state * 48271) mod 0x7FFFFFFF;
        if bound <= 0 then 0 else !state mod bound
      in
      (* Chop the reference into random pieces and concat the views. *)
      let rec chop off acc =
        if off >= len then List.rev acc
        else begin
          let n = 1 + rand (len - off) in
          chop (off + n) (Memory.Iovec.of_bytes reference ~off ~len:n :: acc)
        end
      in
      let iov = ref (Memory.Iovec.concat (chop 0 [])) in
      let expect = ref reference in
      let ok = ref (Bytes.equal (Memory.Iovec.to_bytes !iov) !expect) in
      (* Random sub/concat chains, checking the view against Bytes.sub. *)
      for _ = 1 to min nops 20 do
        let total = Memory.Iovec.length !iov in
        let off = rand (total + 1) in
        let n = rand (total - off + 1) in
        (* Growth branch doubles the view at most; keep it bounded. *)
        (match (if total <= 8192 then rand 2 else 0) with
        | 0 ->
          iov := Memory.Iovec.sub !iov ~off ~len:n;
          expect := Bytes.sub !expect off n
        | _ ->
          iov :=
            Memory.Iovec.concat
              [ Memory.Iovec.sub !iov ~off ~len:n; !iov ];
          expect := Bytes.cat (Bytes.sub !expect off n) !expect);
        let got = Memory.Iovec.to_bytes !iov in
        ok := !ok && Bytes.equal got !expect;
        (* blit_to into a larger buffer must write exactly the view. *)
        let dst = Bytes.make (Memory.Iovec.length !iov + 7) '\xEE' in
        Memory.Iovec.blit_to !iov ~dst ~dst_off:3;
        ok :=
          !ok
          && Bytes.equal (Bytes.sub dst 3 (Memory.Iovec.length !iov)) !expect
          && Bytes.get dst 0 = '\xEE'
          && Bytes.get dst (Bytes.length dst - 1) = '\xEE';
        (* Point lookups agree. *)
        if Memory.Iovec.length !iov > 0 then begin
          let i = rand (Memory.Iovec.length !iov) in
          ok := !ok && Memory.Iovec.get !iov i = Bytes.get !expect i
        end
      done;
      !ok)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      cost_monotone_in_bytes;
      estimate_monotone_in_len;
      estimate_copy_dominates;
      mixed_composition_consistent;
      aal5_wire_bytes_monotone;
      semantics_dimensions_complete;
      semantics_name_roundtrip;
      semantics_unknown_name_rejected;
      thresholds_reverse_above_half_page;
      thresholds_scale_monotonically;
      outcome_retryable_only_again;
      outcome_to_string_total;
      checksum_detects_bit_flips;
      aal5_crc_detects_bit_flips;
      buf_pattern_roundtrip;
      iovec_matches_bytes;
    ]
