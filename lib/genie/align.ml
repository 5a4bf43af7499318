type outcome = {
  swapped_pages : int;
  copied_bytes : int;
  consumed : bool array;
}

let is_aligned ~buf ~src_off = Buf.page_offset buf = src_off

let copy_all ops ~(buf : Buf.t) ~payload_len ~src_frames ~src_off =
  (* Unaligned: copy the payload out through the application's mappings,
     as a gather view over the source pages — frame to frame, no
     intermediate staging buffer. *)
  let psize = Ops.page_size ops in
  let slices = ref [] and cursor = ref 0 in
  while !cursor < payload_len do
    let pos = src_off + !cursor in
    let j = pos / psize and o = pos mod psize in
    let n = min (payload_len - !cursor) (psize - o) in
    slices := Memory.Iovec.of_frame src_frames.(j) ~off:o ~len:n :: !slices;
    cursor := !cursor + n
  done;
  Vm.Address_space.write_iov buf.Buf.space ~addr:buf.Buf.addr
    (Memory.Iovec.concat (List.rev !slices));
  Ops.charge ops Machine.Cost_model.Copyout ~unit:(`Bytes payload_len);
  {
    swapped_pages = 0;
    copied_bytes = payload_len;
    consumed = Array.make (Array.length src_frames) false;
  }

let deliver ops ~(buf : Buf.t) ~payload_len ~src_frames ~src_off ~threshold
    ~displaced =
  if payload_len > buf.Buf.len then
    invalid_arg "Align.deliver: payload longer than buffer";
  if payload_len = 0 then
    { swapped_pages = 0; copied_bytes = 0;
      consumed = Array.make (Array.length src_frames) false }
  else if not (is_aligned ~buf ~src_off) then
    copy_all ops ~buf ~payload_len ~src_frames ~src_off
  else begin
    let psize = Ops.page_size ops in
    let space = buf.Buf.space in
    let region = Vm.Address_space.region_of_addr space ~vaddr:buf.Buf.addr in
    let consumed = Array.make (Array.length src_frames) false in
    let swapped = ref 0 and copied = ref 0 in
    (* Positions are page-space coordinates: payload byte p sits at
       position src_off + p, in source page (pos / psize) at in-page
       offset (pos mod psize) — identical on both sides by alignment. *)
    let base_vaddr = buf.Buf.addr - src_off in
    let npages = (src_off + payload_len + psize - 1) / psize in
    for j = 0 to npages - 1 do
      let page_lo = j * psize and page_hi = (j + 1) * psize in
      let lo = max page_lo src_off and hi = min page_hi (src_off + payload_len) in
      let data_len = hi - lo in
      if data_len > 0 then begin
        let swap_in () =
          let vpn = (base_vaddr / psize) + j in
          let page = vpn - region.Vm.Region.start_vpn in
          (match Vm.Address_space.swap_into_region space region ~page src_frames.(j)
           with
          | Some old_frame -> displaced old_frame
          | None -> ());
          consumed.(j) <- true;
          incr swapped
        in
        if data_len = psize then swap_in ()
        else if data_len < threshold then begin
          (* Reverse copyout, short case: copy the partial data out,
             straight from the source frame. *)
          Vm.Address_space.write_iov space ~addr:(base_vaddr + lo)
            (Memory.Iovec.of_frame src_frames.(j) ~off:(lo - page_lo)
               ~len:data_len);
          copied := !copied + data_len
        end
        else begin
          (* Long case: complete the system page with the application
             page's own bytes around the payload, then swap. *)
          let complete range_lo range_hi =
            let n = range_hi - range_lo in
            if n > 0 then begin
              Vm.Address_space.iter_read space ~addr:(base_vaddr + range_lo)
                ~len:n (fun ~buf_off src ~off ~len ->
                  Memory.Frame.blit_in src_frames.(j)
                    ~dst_off:(range_lo - page_lo + buf_off)
                    ~src:(Memory.Frame.data src) ~src_off:off ~len);
              copied := !copied + n
            end
          in
          complete page_lo lo;
          complete hi page_hi;
          swap_in ()
        end
      end
    done;
    if !swapped > 0 then
      Ops.charge ops Machine.Cost_model.Swap_pages ~unit:(`Pages !swapped);
    if !copied > 0 then Ops.charge ops Machine.Cost_model.Copyout ~unit:(`Bytes !copied);
    { swapped_pages = !swapped; copied_bytes = !copied; consumed }
  end
