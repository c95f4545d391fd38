module Account = Gh_sim.Account
module Fault = Gh_sim.Fault
module Cost = Gh_kernel.Cost
module As = Gh_mem.Address_space
module Vma = Gh_mem.Vma
module Bitmap = Gh_mem.Bitmap

type maps_entry = {
  vma_id : int;
  start_addr : int;
  n_pages : int;
  prot : Gh_mem.Prot.t;
  kind : Vma.kind;
}

let entry_of_vma (v : Vma.t) =
  {
    vma_id = v.Vma.id;
    start_addr = v.Vma.start_addr;
    n_pages = v.Vma.n_pages;
    prot = v.Vma.prot;
    kind = v.Vma.kind;
  }

(* As in Ptrace: a firing fault still charges the attempt's cost. *)
let read_maps acct (p : Process.t) =
  let mem = p.Process.mem in
  let c = As.cost mem in
  Account.charge acct (As.vma_count mem * c.Cost.maps_read_per_vma_ns);
  if Fault.fire p.Process.fault Fault.Procfs_maps then Error Fault.Procfs_maps
  else begin
    let acc = ref [] in
    As.iter_vmas mem (fun v -> acc := entry_of_vma v :: !acc);
    Ok (List.rev !acc)
  end

let dirty_sets (p : Process.t) =
  let acc = ref [] in
  As.iter_vmas p.Process.mem (fun (v : Vma.t) ->
      acc := (v, Bitmap.copy v.Vma.soft_dirty) :: !acc);
  List.rev !acc

let scan_soft_dirty acct (p : Process.t) =
  let c = As.cost p.Process.mem in
  Account.charge acct (As.total_pages p.Process.mem * c.Cost.pagemap_scan_per_page_ns);
  if Fault.fire p.Process.fault Fault.Procfs_scan then Error Fault.Procfs_scan
  else Ok (dirty_sets p)

let clear_refs acct (p : Process.t) =
  let c = As.cost p.Process.mem in
  Account.charge acct (As.total_pages p.Process.mem * c.Cost.clear_refs_per_page_ns);
  if Fault.fire p.Process.fault Fault.Procfs_clear then Error Fault.Procfs_clear
  else Ok (As.clear_refs p.Process.mem)
