module Account = Gh_sim.Account
module Cost = Gh_kernel.Cost
module As = Gh_mem.Address_space
module Vma = Gh_mem.Vma
module Bitmap = Gh_mem.Bitmap
module Process = Gh_proc.Process
module Ptrace = Gh_proc.Ptrace
module Procfs = Gh_proc.Procfs

type t = {
  snap : Snapshot.t;
  proc : Process.t;
  by_id : (int, Snapshot.region * Bitmap.t) Hashtbl.t;  (* vma id -> (region, saved) *)
  mutable saved : int;
}

(* Metadata-only region record: geometry and presence eagerly, contents
   materialized by the salvage hook. *)
let shell_region (v : Vma.t) =
  let zeros = Bitmap.create v.Vma.n_pages in
  (* The shell's data starts all-zero; the salvage hook keeps [zeros] in
     step as it materialises real contents. *)
  Bitmap.fill zeros true;
  let n_blocks =
    (v.Vma.n_pages + Snapshot.block_pages - 1) / Snapshot.block_pages
  in
  (* Hashes match the all-zero shell contents; the salvage hook marks
     blocks stale as it materialises real contents, and they re-seal
     against the salvaged data at the next audit. *)
  let hashes =
    Array.init n_blocks (fun b ->
        Snapshot.zero_block_hash
          (min Snapshot.block_pages (v.Vma.n_pages - (b * Snapshot.block_pages))))
  in
  {
    Snapshot.start_addr = v.Vma.start_addr;
    n_pages = v.Vma.n_pages;
    prot = v.Vma.prot;
    kind = v.Vma.kind;
    data = Array.make v.Vma.n_pages 0;
    present = Bitmap.copy v.Vma.present;
    zeros;
    hashes;
    hstale = Bitmap.create n_blocks;
  }

exception Stop of Gh_sim.Fault.site

let ok_or_stop = function Ok v -> v | Error site -> raise (Stop site)

let capture acct (p : Process.t) =
  let start = Account.mark acct in
  let cost = As.cost p.Process.mem in
  match Ptrace.attach acct p with
  | Error _ as e -> e
  | Ok session -> (
      try
        let regs =
          List.map
            (fun th ->
              (th.Gh_proc.Thread.tid, ok_or_stop (Ptrace.getregs session acct th)))
            p.Process.threads
        in
        let _maps = ok_or_stop (Procfs.read_maps acct p) in
        let vmas = As.vmas p.Process.mem in
        let by_id = Hashtbl.create 64 in
        let regions =
          List.map
            (fun (v : Vma.t) ->
              let region = shell_region v in
              Hashtbl.replace by_id v.Vma.id (region, Bitmap.create v.Vma.n_pages);
              region)
            vmas
        in
        (* Arm both tracking mechanisms: soft-dirty for the restore engine's
           dirty sets, CoW write-protection for lazy content salvage. The arming
           walk costs about a clear_refs pass. *)
        ok_or_stop (Procfs.clear_refs acct p);
        As.arm_cow_all p.Process.mem;
        Account.charge acct (As.present_pages p.Process.mem * cost.Cost.clear_refs_per_page_ns);
        Ptrace.detach session acct;
        let present_pages =
          List.fold_left (fun n (v : Vma.t) -> n + Bitmap.count v.Vma.present) 0 vmas
        in
        let snap =
          Snapshot.make
            ~brk:(As.brk p.Process.mem)
            ~regs ~regions ~present_pages
            ~capture_ns:(Account.since acct start)
        in
        let t = { snap; proc = p; by_id; saved = 0 } in
        As.set_cow_hook p.Process.mem
          (Some
             (fun vma i ->
               match Hashtbl.find_opt t.by_id vma.Vma.id with
               | Some (region, saved) when i < region.Snapshot.n_pages ->
                   if not (Bitmap.get saved i) then begin
                     region.Snapshot.data.(i) <- vma.Vma.data.(i);
                     Bitmap.set region.Snapshot.zeros i (vma.Vma.data.(i) = 0);
                     (* Salvage is a legitimate content change: mark the
                        block stale so the hash re-seals instead of
                        flagging the salvaged bytes as corruption. *)
                     Bitmap.set region.Snapshot.hstale (i / Snapshot.block_pages) true;
                     Bitmap.set saved i true;
                     t.saved <- t.saved + 1
                   end
               | _ -> ()));
        Ok t
      with Stop site ->
        Ptrace.detach session acct;
        Error site)

let snapshot t = t.snap
let saved_pages t = t.saved
