module F = Memory.Frame
module PM = Memory.Phys_mem
module VS = Vm.Vm_sys
module MO = Vm.Memory_object
module PT = Vm.Page_table

type violation = {
  invariant : string;
  host : string;
  subject : string;
  detail : string;
}

let pp_violation fmt v =
  Format.fprintf fmt "[%s] %s %s: %s" v.invariant v.host v.subject v.detail

let violation_to_string v = Format.asprintf "%a" pp_violation v

let violation inv (host : Genie.Host.t) subject fmt =
  Printf.ksprintf
    (fun detail -> { invariant = inv; host = host.Genie.Host.name; subject; detail })
    fmt

let frame_subject (f : F.t) = Printf.sprintf "frame#%d" f.F.id
let region_subject (r : Vm.Region.t) = Printf.sprintf "region#%d" r.Vm.Region.id
let object_subject (o : MO.t) = Printf.sprintf "object#%d" o.MO.id

let state_name = function
  | F.Free -> "free"
  | F.Allocated -> "allocated"
  | F.Zombie -> "zombie"

(* {1 Shared walks} *)

let phys (host : Genie.Host.t) = host.Genie.Host.vm.VS.phys

let iter_frames host f =
  let p = phys host in
  for id = 0 to PM.total_frames p - 1 do
    f (PM.frame_by_id p id)
  done

(* Multiset of frames currently in the host's overlay pool. *)
let pool_counts (host : Genie.Host.t) =
  let counts = Hashtbl.create 64 in
  Genie.Host.iter_pool host (fun (f : F.t) ->
      Hashtbl.replace counts f.F.id (1 + Option.value ~default:0 (Hashtbl.find_opt counts f.F.id)));
  counts

let ledger_counts (host : Genie.Host.t) =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun ((f : F.t), n) -> Hashtbl.replace counts f.F.id n)
    (Genie.Ledger.held_frames host.Genie.Host.ledger);
  counts

(* Frames parked in the VM's emergency fault-handling reserve. *)
let reserve_counts (host : Genie.Host.t) =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (f : F.t) -> Hashtbl.replace counts f.F.id 1)
    (VS.reserve_frames host.Genie.Host.vm);
  counts

(* Objects reachable from the regions of every address space, shadow
   chains included.  The walk is cycle- and sharing-safe. *)
let reachable_objects (host : Genie.Host.t) =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec visit (o : MO.t) =
    if not (Hashtbl.mem seen o.MO.id) then begin
      Hashtbl.add seen o.MO.id ();
      acc := o :: !acc;
      match o.MO.shadow with Some parent -> visit parent | None -> ()
    end
  in
  List.iter
    (fun (sv : VS.space_view) ->
      List.iter (fun (r : Vm.Region.t) -> visit r.Vm.Region.obj) (sv.VS.sv_regions ()))
    (VS.space_views host.Genie.Host.vm);
  !acc

(* {1 free-list} *)

let free_list host =
  let p = phys host in
  let vm = host.Genie.Host.vm in
  let out = ref [] in
  let free_ids = PM.free_ids p in
  let on_queue = Hashtbl.create 64 in
  List.iter
    (fun id ->
      if Hashtbl.mem on_queue id then
        out :=
          violation "free-list" host (Printf.sprintf "frame#%d" id)
            "appears more than once on the free queue"
          :: !out
      else Hashtbl.add on_queue id ())
    free_ids;
  let mapped = Hashtbl.create 256 in
  List.iter
    (fun (sv : VS.space_view) ->
      List.iter
        (fun ((_, pte) : int * PT.pte) ->
          Hashtbl.replace mapped pte.PT.frame.F.id ())
        (sv.VS.sv_ptes ()))
    (VS.space_views vm);
  iter_frames host (fun f ->
      let queued = Hashtbl.mem on_queue f.F.id in
      match f.F.state with
      | F.Free ->
        if not queued then
          out :=
            violation "free-list" host (frame_subject f)
              "state is free but the frame is not on the free queue"
            :: !out;
        if F.io_referenced f then
          out :=
            violation "free-list" host (frame_subject f)
              "free frame carries I/O references (in=%d out=%d)" f.F.input_refs
              f.F.output_refs
            :: !out;
        if f.F.wired <> 0 then
          out :=
            violation "free-list" host (frame_subject f) "free frame is wired (%d)"
              f.F.wired
            :: !out;
        if f.F.pageable then
          out :=
            violation "free-list" host (frame_subject f)
              "free frame is still marked pageable"
            :: !out;
        if Hashtbl.mem vm.VS.frame_owner f.F.id then
          out :=
            violation "free-list" host (frame_subject f)
              "free frame still registered to a memory object"
            :: !out;
        if Hashtbl.mem mapped f.F.id then
          out :=
            violation "free-list" host (frame_subject f)
              "free frame is still mapped by a page table"
            :: !out
      | F.Allocated | F.Zombie ->
        if queued then
          out :=
            violation "free-list" host (frame_subject f)
              "%s frame is on the free queue" (state_name f.F.state)
            :: !out);
  !out

(* {1 zombie-reclaim} *)

let zombie_reclaim host =
  let vm = host.Genie.Host.vm in
  let out = ref [] in
  let pool = pool_counts host in
  let ledger = ledger_counts host in
  let zombies = ref 0 in
  iter_frames host (fun f ->
      if f.F.state = F.Zombie then begin
        incr zombies;
        if not (F.io_referenced f) then
          out :=
            violation "zombie-reclaim" host (frame_subject f)
              "zombie frame has no pending I/O references and was never reclaimed"
            :: !out;
        if Hashtbl.mem vm.VS.frame_owner f.F.id then
          out :=
            violation "zombie-reclaim" host (frame_subject f)
              "zombie frame still registered to a memory object"
            :: !out;
        if Hashtbl.mem pool f.F.id then
          out :=
            violation "zombie-reclaim" host (frame_subject f)
              "zombie frame sits in the overlay pool"
            :: !out;
        if Hashtbl.mem ledger f.F.id then
          out :=
            violation "zombie-reclaim" host (frame_subject f)
              "zombie frame is still held by the kernel ledger"
            :: !out
      end);
  let counted = PM.zombie_count (phys host) in
  if counted <> !zombies then
    out :=
      violation "zombie-reclaim" host "phys-mem"
        "zombie counter says %d but %d zombie frames exist" counted !zombies
      :: !out;
  !out

(* {1 frame-accounting} *)

let frame_accounting host =
  let vm = host.Genie.Host.vm in
  let out = ref [] in
  let pool = pool_counts host in
  let ledger = ledger_counts host in
  let reserve = reserve_counts host in
  let count tbl id = Option.value ~default:0 (Hashtbl.find_opt tbl id) in
  iter_frames host (fun f ->
      let object_owned = if Hashtbl.mem vm.VS.frame_owner f.F.id then 1 else 0 in
      let owners =
        object_owned + count pool f.F.id + count ledger f.F.id
        + count reserve f.F.id
      in
      let describe () =
        Printf.sprintf "object=%d pool=%d ledger=%d reserve=%d" object_owned
          (count pool f.F.id) (count ledger f.F.id) (count reserve f.F.id)
      in
      match f.F.state with
      | F.Allocated ->
        if owners <> 1 then
          out :=
            violation "frame-accounting" host (frame_subject f)
              "allocated frame has %d owners (%s), expected exactly 1" owners
              (describe ())
            :: !out
      | F.Free | F.Zombie ->
        if owners <> 0 then
          out :=
            violation "frame-accounting" host (frame_subject f)
              "%s frame has %d owners (%s), expected none" (state_name f.F.state)
              owners (describe ())
            :: !out);
  !out

(* {1 object-slots} *)

let object_slots host =
  let vm = host.Genie.Host.vm in
  let p = phys host in
  let out = ref [] in
  (* Forward: every registry entry names a resident slot with that frame. *)
  Hashtbl.iter
    (fun fid ((obj : MO.t), idx) ->
      let f = PM.frame_by_id p fid in
      match MO.find_local obj idx with
      | Some (MO.Resident resident) when resident == f -> ()
      | Some (MO.Resident resident) ->
        out :=
          violation "object-slots" host (frame_subject f)
            "registry says %s page %d, but that slot holds frame#%d"
            (object_subject obj) idx resident.F.id
          :: !out
      | Some (MO.Swapped _) ->
        out :=
          violation "object-slots" host (frame_subject f)
            "registry says %s page %d, but that slot is swapped out"
            (object_subject obj) idx
          :: !out
      | None ->
        out :=
          violation "object-slots" host (frame_subject f)
            "registry says %s page %d, but the object has no such page"
            (object_subject obj) idx
          :: !out)
    vm.VS.frame_owner;
  (* Reverse: every resident slot of a reachable object is registered. *)
  List.iter
    (fun (obj : MO.t) ->
      Hashtbl.iter
        (fun idx slot ->
          match slot with
          | MO.Swapped _ -> ()
          | MO.Resident (f : F.t) -> (
            match Hashtbl.find_opt vm.VS.frame_owner f.F.id with
            | Some (owner, i) when owner == obj && i = idx -> ()
            | Some (owner, i) ->
              out :=
                violation "object-slots" host (object_subject obj)
                  "page %d holds frame#%d, but the registry maps it to %s page %d"
                  idx f.F.id (object_subject owner) i
                :: !out
            | None ->
              out :=
                violation "object-slots" host (object_subject obj)
                  "page %d holds frame#%d, which is not in the ownership registry"
                  idx f.F.id
                :: !out))
        obj.MO.pages)
    (reachable_objects host);
  !out

(* {1 shadow-acyclic} *)

let shadow_acyclic host =
  let out = ref [] in
  List.iter
    (fun (sv : VS.space_view) ->
      List.iter
        (fun (r : Vm.Region.t) ->
          let seen = Hashtbl.create 8 in
          let rec walk (o : MO.t) =
            if Hashtbl.mem seen o.MO.id then
              out :=
                violation "shadow-acyclic" host (region_subject r)
                  "shadow chain cycles back to %s" (object_subject o)
                :: !out
            else begin
              Hashtbl.add seen o.MO.id ();
              match o.MO.shadow with Some parent -> walk parent | None -> ()
            end
          in
          walk r.Vm.Region.obj)
        (sv.VS.sv_regions ()))
    (VS.space_views host.Genie.Host.vm);
  !out

(* {1 pte-mapping} *)

let pte_mapping host =
  let out = ref [] in
  List.iter
    (fun (sv : VS.space_view) ->
      let regions = sv.VS.sv_regions () in
      List.iter
        (fun ((vpn, pte) : int * PT.pte) ->
          let subject = Printf.sprintf "space#%d vpn#%d" sv.VS.sv_id vpn in
          match
            List.filter (fun r -> Vm.Region.contains_vpn r vpn) regions
          with
          | [] ->
            out :=
              violation "pte-mapping" host subject
                "translation to frame#%d lies outside every region"
                pte.PT.frame.F.id
              :: !out
          | _ :: _ :: _ ->
            out :=
              violation "pte-mapping" host subject
                "translation covered by more than one region"
              :: !out
          | [ r ] -> (
            let idx = vpn - r.Vm.Region.start_vpn in
            if pte.PT.frame.F.state <> F.Allocated then
              out :=
                violation "pte-mapping" host subject
                  "maps frame#%d in state %s" pte.PT.frame.F.id
                  (state_name pte.PT.frame.F.state)
                :: !out;
            match MO.find_chain r.Vm.Region.obj idx with
            | Some (owner, MO.Resident f) when f == pte.PT.frame ->
              if pte.PT.prot = Vm.Prot.Read_write && owner != r.Vm.Region.obj
              then
                out :=
                  violation "pte-mapping" host subject
                    "writable mapping of frame#%d aliases shadow-chain %s"
                    f.F.id (object_subject owner)
                  :: !out
            | Some (_, MO.Resident f) ->
              out :=
                violation "pte-mapping" host subject
                  "maps frame#%d but %s resolves page %d to frame#%d"
                  pte.PT.frame.F.id (region_subject r) idx f.F.id
                :: !out
            | Some (_, MO.Swapped _) ->
              out :=
                violation "pte-mapping" host subject
                  "maps frame#%d but the object chain says the page is swapped out"
                  pte.PT.frame.F.id
                :: !out
            | None ->
              out :=
                violation "pte-mapping" host subject
                  "maps frame#%d but the object chain has no such page"
                  pte.PT.frame.F.id
                :: !out))
        (sv.VS.sv_ptes ()))
    (VS.space_views host.Genie.Host.vm);
  !out

(* {1 region-state} *)

let in_flight_regions (host : Genie.Host.t) =
  let entries = Genie.Ledger.entries host.Genie.Host.ledger in
  let direct =
    List.filter_map (fun (e : Genie.Ledger.entry) -> e.Genie.Ledger.region ()) entries
  in
  (* Regions pinned through a live page-referencing handle: in-place I/O
     on application buffers wires the buffer's region for the duration
     without moving it, so the entry exposes only the handle.  Map the
     handle's frames back to the regions they are mapped in. *)
  let views = VS.space_views host.Genie.Host.vm in
  let via_handle =
    List.concat_map
      (fun (e : Genie.Ledger.entry) ->
        match e.Genie.Ledger.handle () with
        | None -> []
        | Some h -> (
          let sid = Vm.Address_space.id h.Vm.Page_ref.space in
          match List.find_opt (fun (sv : VS.space_view) -> sv.VS.sv_id = sid) views with
          | None -> []
          | Some sv ->
            let regions = sv.VS.sv_regions () in
            List.filter_map
              (fun ((vpn, pte) : int * PT.pte) ->
                if List.memq pte.PT.frame h.Vm.Page_ref.frames then
                  List.find_opt
                    (fun (r : Vm.Region.t) -> Vm.Region.contains_vpn r vpn)
                    regions
                else None)
              (sv.VS.sv_ptes ())))
      entries
  in
  direct @ via_handle

let region_state host =
  let out = ref [] in
  let in_flight = in_flight_regions host in
  let covered r = List.exists (fun r' -> r' == r) in_flight in
  List.iter
    (fun (sv : VS.space_view) ->
      let ptes = lazy (sv.VS.sv_ptes ()) in
      let region_ptes (r : Vm.Region.t) =
        List.filter
          (fun ((vpn, _) : int * PT.pte) -> Vm.Region.contains_vpn r vpn)
          (Lazy.force ptes)
      in
      List.iter
        (fun (r : Vm.Region.t) ->
          (match r.Vm.Region.state with
          | Vm.Region.Moved_out ->
            List.iter
              (fun ((vpn, pte) : int * PT.pte) ->
                if pte.PT.prot <> Vm.Prot.No_access then
                  out :=
                    violation "region-state" host (region_subject r)
                      "moved-out region leaves vpn#%d accessible (%s)" vpn
                      (Format.asprintf "%a" Vm.Prot.pp pte.PT.prot)
                    :: !out)
              (region_ptes r)
          | Vm.Region.Moving_in | Vm.Region.Moving_out ->
            if not (covered r) then
              out :=
                violation "region-state" host (region_subject r)
                  "region is %s but no operation is in flight for it"
                  (Vm.Region.movability_name r.Vm.Region.state)
                :: !out
          | Vm.Region.Unmovable | Vm.Region.Moved_in
          | Vm.Region.Weakly_moved_out -> ()))
        (sv.VS.sv_regions ()))
    (VS.space_views host.Genie.Host.vm);
  (* Region hiding: a strong system-allocated input target (emulated
     move) stays inaccessible while the transfer is in flight. *)
  List.iter
    (fun (e : Genie.Ledger.entry) ->
      match (e.Genie.Ledger.dir, e.Genie.Ledger.region ()) with
      | (Genie.Ledger.Input, Some r)
        when r.Vm.Region.valid
             && e.Genie.Ledger.sem.Genie.Semantics.integrity
                = Genie.Semantics.Strong
             && Genie.Semantics.system_allocated e.Genie.Ledger.sem ->
        List.iter
          (fun (sv : VS.space_view) ->
            if List.exists (fun r' -> r' == r) (sv.VS.sv_regions ()) then
              List.iter
                (fun ((vpn, pte) : int * PT.pte) ->
                  if
                    Vm.Region.contains_vpn r vpn
                    && pte.PT.prot <> Vm.Prot.No_access
                  then
                    out :=
                      violation "region-state" host (region_subject r)
                        "hidden input region exposes vpn#%d (%s) mid-transfer"
                        vpn
                        (Format.asprintf "%a" Vm.Prot.pp pte.PT.prot)
                      :: !out)
                (sv.VS.sv_ptes ()))
          (VS.space_views host.Genie.Host.vm)
      | _ -> ())
    (Genie.Ledger.entries host.Genie.Host.ledger);
  !out

(* {1 wiring} *)

let wiring host =
  let vm = host.Genie.Host.vm in
  let out = ref [] in
  let in_flight = in_flight_regions host in
  iter_frames host (fun f ->
      if f.F.wired < 0 then
        out :=
          violation "wiring" host (frame_subject f) "negative wire count %d"
            f.F.wired
          :: !out;
      if f.F.wired > 0 then begin
        if f.F.state <> F.Allocated then
          out :=
            violation "wiring" host (frame_subject f) "wired frame is %s"
              (state_name f.F.state)
            :: !out;
        if not (Hashtbl.mem vm.VS.frame_owner f.F.id) then
          out :=
            violation "wiring" host (frame_subject f)
              "wired frame belongs to no memory object"
            :: !out;
        if Memory.Pageout.eligible vm.VS.pageout f then
          out :=
            violation "wiring" host (frame_subject f)
              "wired frame is pageout-eligible"
            :: !out
      end;
      if f.F.pageable then begin
        if f.F.state <> F.Allocated then
          out :=
            violation "wiring" host (frame_subject f) "pageable frame is %s"
              (state_name f.F.state)
            :: !out;
        if not (Hashtbl.mem vm.VS.frame_owner f.F.id) then
          out :=
            violation "wiring" host (frame_subject f)
              "pageable frame belongs to no memory object"
            :: !out
      end);
  List.iter
    (fun (sv : VS.space_view) ->
      List.iter
        (fun (r : Vm.Region.t) ->
          if r.Vm.Region.wired < 0 then
            out :=
              violation "wiring" host (region_subject r)
                "negative region wire count %d" r.Vm.Region.wired
              :: !out;
          if r.Vm.Region.wired > 0 && not (List.exists (fun r' -> r' == r) in_flight)
          then
            out :=
              violation "wiring" host (region_subject r)
                "region wired (%d) with no operation in flight" r.Vm.Region.wired
              :: !out)
        (sv.VS.sv_regions ()))
    (VS.space_views host.Genie.Host.vm);
  !out

(* {1 tcow-protection} *)

let tcow_protection host =
  let out = ref [] in
  let writable = Hashtbl.create 64 in
  List.iter
    (fun (sv : VS.space_view) ->
      List.iter
        (fun ((vpn, pte) : int * PT.pte) ->
          if pte.PT.prot = Vm.Prot.Read_write then
            Hashtbl.replace writable pte.PT.frame.F.id (sv.VS.sv_id, vpn))
        (sv.VS.sv_ptes ()))
    (VS.space_views host.Genie.Host.vm);
  List.iter
    (fun (e : Genie.Ledger.entry) ->
      if
        e.Genie.Ledger.dir = Genie.Ledger.Output
        && Genie.Semantics.equal e.Genie.Ledger.sem Genie.Semantics.emulated_copy
      then
        match e.Genie.Ledger.handle () with
        | None -> ()
        | Some h ->
          List.iter
            (fun (f : F.t) ->
              if f.F.output_refs > 0 then
                match Hashtbl.find_opt writable f.F.id with
                | Some (space_id, vpn) ->
                  out :=
                    violation "tcow-protection" host (frame_subject f)
                      "emulated-copy output in flight, yet space#%d vpn#%d maps \
                       the frame writable"
                      space_id vpn
                    :: !out
                | None -> ())
            h.Vm.Page_ref.frames)
    (Genie.Ledger.entries host.Genie.Host.ledger);
  !out

(* {1 io-refcounts} *)

let io_refcounts host =
  let vm = host.Genie.Host.vm in
  let out = ref [] in
  let in_counts = Hashtbl.create 64 and out_counts = Hashtbl.create 64 in
  let obj_counts = Hashtbl.create 16 in
  let objs = Hashtbl.create 16 in
  let bump tbl id n =
    Hashtbl.replace tbl id (n + Option.value ~default:0 (Hashtbl.find_opt tbl id))
  in
  List.iter
    (fun (iv : VS.io_view) ->
      let tbl =
        match iv.VS.io_dir with
        | VS.Io_input -> in_counts
        | VS.Io_output -> out_counts
      in
      List.iter (fun (f : F.t) -> bump tbl f.F.id 1) iv.VS.io_frames;
      List.iter
        (fun ((o : MO.t), n) ->
          Hashtbl.replace objs o.MO.id o;
          bump obj_counts o.MO.id n)
        iv.VS.io_objects)
    (VS.io_views vm);
  let expected tbl id = Option.value ~default:0 (Hashtbl.find_opt tbl id) in
  iter_frames host (fun f ->
      let ein = expected in_counts f.F.id and eout = expected out_counts f.F.id in
      if f.F.input_refs <> ein then
        out :=
          violation "io-refcounts" host (frame_subject f)
            "input_refs=%d but %d live input descriptors reference the frame"
            f.F.input_refs ein
          :: !out;
      if f.F.output_refs <> eout then
        out :=
          violation "io-refcounts" host (frame_subject f)
            "output_refs=%d but %d live output descriptors reference the frame"
            f.F.output_refs eout
          :: !out);
  (* Per-object input totals: reachable objects and any object named by a
     live handle must agree with the registry. *)
  List.iter
    (fun (o : MO.t) -> if not (Hashtbl.mem objs o.MO.id) then Hashtbl.add objs o.MO.id o)
    (reachable_objects host);
  Hashtbl.iter
    (fun id (o : MO.t) ->
      let e = expected obj_counts id in
      if o.MO.input_refs <> e then
        out :=
          violation "io-refcounts" host (object_subject o)
            "object input_refs=%d but live descriptors account for %d"
            o.MO.input_refs e
          :: !out)
    objs;
  !out

(* {1 io-desc-safety} *)

let io_desc_safety host =
  let out = ref [] in
  List.iter
    (fun (iv : VS.io_view) ->
      List.iter
        (fun (f : F.t) ->
          if f.F.state = F.Free then
            out :=
              violation "io-desc-safety" host (frame_subject f)
                "frame is on the free list while %s descriptor io#%d still \
                 references it (I/O-deferred deallocation violated)"
                (match iv.VS.io_dir with
                | VS.Io_input -> "an input"
                | VS.Io_output -> "an output")
                iv.VS.io_id
              :: !out)
        iv.VS.io_frames)
    (VS.io_views host.Genie.Host.vm);
  !out

(* {1 pte-rmap} *)

let pte_rmap host =
  List.concat_map
    (fun (sv : VS.space_view) ->
      List.map
        (fun detail ->
          violation "pte-rmap" host
            (Printf.sprintf "space#%d" sv.VS.sv_id)
            "%s" detail)
        (sv.VS.sv_rmap_errors ()))
    (VS.space_views host.Genie.Host.vm)

(* {1 Catalogue} *)

let all =
  [
    ("free-list", free_list);
    ("zombie-reclaim", zombie_reclaim);
    ("frame-accounting", frame_accounting);
    ("object-slots", object_slots);
    ("shadow-acyclic", shadow_acyclic);
    ("pte-mapping", pte_mapping);
    ("region-state", region_state);
    ("wiring", wiring);
    ("tcow-protection", tcow_protection);
    ("io-refcounts", io_refcounts);
    ("io-desc-safety", io_desc_safety);
    ("pte-rmap", pte_rmap);
  ]

let check_host host = List.concat_map (fun (_, f) -> f host) all
let check_world hosts = List.concat_map check_host hosts
