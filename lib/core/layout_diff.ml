module Account = Gh_sim.Account
module Cost = Gh_kernel.Cost
module Procfs = Gh_proc.Procfs

type change =
  | Added of Procfs.maps_entry
  | Removed of Snapshot.region
  | Resized of { now : Procfs.maps_entry; snap : Snapshot.region }
  | Prot_changed of { now : Procfs.maps_entry; snap : Snapshot.region }

let diff acct ~cost (snapshot : Snapshot.t) (maps : Procfs.maps_entry list) =
  let n_snap = List.length snapshot.Snapshot.regions in
  let n_now = List.length maps in
  Account.charge acct (max n_snap n_now * cost.Cost.layout_diff_per_vma_ns);
  let snap_by_start = Hashtbl.create 64 in
  List.iter
    (fun (r : Snapshot.region) -> Hashtbl.replace snap_by_start r.Snapshot.start_addr r)
    snapshot.Snapshot.regions;
  let changes = ref [] in
  let matched = Hashtbl.create 64 in
  List.iter
    (fun (e : Procfs.maps_entry) ->
      match Hashtbl.find_opt snap_by_start e.Procfs.start_addr with
      | None -> changes := Added e :: !changes
      | Some snap ->
          Hashtbl.replace matched snap.Snapshot.start_addr ();
          if e.Procfs.n_pages <> snap.Snapshot.n_pages then
            changes := Resized { now = e; snap } :: !changes;
          if not (Gh_mem.Prot.equal e.Procfs.prot snap.Snapshot.prot) then
            changes := Prot_changed { now = e; snap } :: !changes)
    maps;
  List.iter
    (fun (r : Snapshot.region) ->
      if not (Hashtbl.mem matched r.Snapshot.start_addr) then changes := Removed r :: !changes)
    snapshot.Snapshot.regions;
  List.rev !changes
