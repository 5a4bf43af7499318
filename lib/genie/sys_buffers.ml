module C = Machine.Cost_model

let alloc (host : Host.t) space ~len =
  if len <= 0 then invalid_arg "Sys_buffers.alloc: len must be positive";
  let psize = Host.page_size host in
  Ops.charge host.Host.ops C.Region_create ~unit:(`Pages ((len + psize - 1) / psize));
  Buf.map ~state:Vm.Region.Moved_in space ~len

let dealloc (host : Host.t) (buf : Buf.t) =
  let region = Vm.Address_space.region_of_addr buf.Buf.space ~vaddr:buf.Buf.addr in
  if region.Vm.Region.state <> Vm.Region.Moved_in then
    Vm.Vm_error.semantics "Sys_buffers.dealloc: region is %s, not moved-in"
      (Vm.Region.movability_name region.Vm.Region.state);
  Ops.charge host.Host.ops C.Region_remove ~unit:(`Pages region.Vm.Region.npages);
  Vm.Address_space.remove_region buf.Buf.space region
