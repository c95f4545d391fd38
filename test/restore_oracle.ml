(* The restore engine as it stood before the word-at-a-time step-6 kernel,
   kept verbatim below this comment: per-run classification
   ([iter_action_runs]) and one [Ptrace.write_pages]/[zero_pages]/
   [inject_syscall] per run. It is the oracle of the differential restore
   property in test_properties.ml and is used nowhere else. *)

open Groundhog_core

module Account = Gh_sim.Account
module Fault = Gh_sim.Fault
module Cost = Gh_kernel.Cost
module As = Gh_mem.Address_space
module Vma = Gh_mem.Vma
module Bitmap = Gh_mem.Bitmap
module Process = Gh_proc.Process
module Ptrace = Gh_proc.Ptrace
module Procfs = Gh_proc.Procfs
module Thread = Gh_proc.Thread
module Registers = Gh_proc.Registers

(* What to do with one page of a matched region. Pages that are clean with
   unchanged presence are kept as-is and never reach an action run. *)
type action =
  | Copy  (* write the snapshot's content back *)
  | Zero  (* stack page whose snapshot content is zero: memset, no source read *)
  | Madvise  (* newly paged during the invocation: return to lazy *)

(* Per-page classification, word-batched. For each packed word of the
   region's bitmaps we compute

     restore = snap_present land (dirty lor lnot now_present)
     madvise = lnot snap_present land now_present

   and everything else is Keep. Pages past the end of the [dirty] map are
   treated as dirty — tracking information is missing for them (the VMA was
   resized between the pagemap scan and now), and restoring an unmodified
   page is safe where keeping a modified one is a leak. Pages past the end
   of [vma]'s own maps read as non-present, matching a freshly re-created
   mapping. The Copy/Zero split (stack pages whose snapshot content is
   zero: memset, no source read) is decided per page, but only inside
   restore runs of stack regions. *)

let full_word = -1 (* all 63 bits; OCaml ints are 63-bit two's complement *)

(* Apply [f pos len action] to each maximal run of equal non-Keep actions. *)
let iter_action_runs (snap : Snapshot.region) (vma : Vma.t) dirty f =
  let n = snap.Snapshot.n_pages in
  let bpw = Bitmap.bits_per_word in
  let nw = (n + bpw - 1) / bpw in
  let dirty_len = Bitmap.length dirty in
  let is_stack = snap.Snapshot.kind = Vma.Stack in
  let emit pos len cls =
    if cls = 2 then f pos len Madvise
    else if not is_stack then f pos len Copy
    else begin
      (* Split a stack restore run into Zero / Copy stretches by hopping
         word-by-word over the snapshot's [zeros] map (captured once at
         snapshot time) instead of re-scanning page contents per restore.
         Bits past the map's length read as zero, which [lnot] turns into
         a spurious boundary — clamping to [stop] keeps it inert. *)
      let zeros = snap.Snapshot.zeros in
      let stop = pos + len in
      let i = ref pos in
      while !i < stop do
        let z = Bitmap.get zeros !i in
        let start = !i in
        let scanning = ref true in
        while !scanning && !i < stop do
          let wi = !i / bpw and b = !i mod bpw in
          let w = Bitmap.word zeros wi in
          let flips = (if z then lnot w else w) lsr b in
          if flips = 0 then i := min stop ((wi + 1) * bpw)
          else begin
            i := min stop (!i + Bitmap.ctz flips);
            scanning := false
          end
        done;
        f start (!i - start) (if z then Zero else Copy)
      done
    end
  in
  (* Run state across words: class 0 = Keep (no open run), 1 = restore,
     2 = madvise. *)
  let cur = ref 0 and run_start = ref 0 in
  let flush stop =
    if !cur <> 0 then begin
      emit !run_start (stop - !run_start) !cur;
      cur := 0
    end
  in
  for wi = 0 to nw - 1 do
    let base = wi * bpw in
    let valid = if base + bpw <= n then full_word else (1 lsl (n - base)) - 1 in
    let sp = Bitmap.word snap.Snapshot.present wi in
    let np = Bitmap.word vma.Vma.present wi in
    let dirty_pad =
      if base + bpw <= dirty_len then 0
      else if base >= dirty_len then full_word
      else full_word lsl (dirty_len - base)
    in
    let dv = Bitmap.word dirty wi lor dirty_pad in
    let restore_mask = sp land (dv lor lnot np) land valid in
    let madv_mask = lnot sp land np land valid in
    if restore_mask = 0 && madv_mask = 0 then flush base
    else begin
      (* Hop between class boundaries with trailing-zero-count. *)
      let stop = min bpw (n - base) in
      let pos = ref 0 in
      while !pos < stop do
        let cls =
          if (restore_mask lsr !pos) land 1 = 1 then 1
          else if (madv_mask lsr !pos) land 1 = 1 then 2
          else 0
        in
        let mask =
          match cls with
          | 1 -> restore_mask
          | 2 -> madv_mask
          | _ -> lnot (restore_mask lor madv_mask)
        in
        let inv = lnot mask lsr !pos in
        let run_stop = if inv = 0 then stop else min stop (!pos + Bitmap.ctz inv) in
        if cls <> !cur then begin
          flush (base + !pos);
          if cls <> 0 then begin
            cur := cls;
            run_start := base + !pos
          end
        end;
        pos := run_stop
      done
    end
  done;
  flush n

(* Early exit out of the iteration callbacks below; caught at the [run]
   boundary, never escapes this module. *)
exception Stop of Fault.site

let ok_or_stop = function Ok v -> v | Error site -> raise (Stop site)

(* Returns (pages copied/zeroed, pages madvised, madvise syscall count,
   time spent in madvise injections) — the injections are part of the
   layout-reversal budget, not the memory-copy budget. *)
let restore_region session acct fault (snap : Snapshot.region) (vma : Vma.t) dirty =
  let restored = ref 0 and madvised = ref 0 and injected = ref 0 in
  let inject_ns = ref 0 in
  iter_action_runs snap vma dirty (fun pos len action ->
      match action with
      | Copy ->
          (* Silent-corruption site: the run is "restored" (counted,
             reported complete) but never written — the previous request's
             bytes survive. No error surfaces; only the restore-time hash
             audit can see it. *)
          if Fault.fire fault Fault.Restore_skip then restored := !restored + len
          else begin
            ok_or_stop
              (Ptrace.write_pages session acct vma ~pos ~len ~src:snap.Snapshot.data
                 ~src_pos:pos);
            restored := !restored + len
          end
      | Zero ->
          ok_or_stop (Ptrace.zero_pages session acct vma ~pos ~len);
          restored := !restored + len
      | Madvise ->
          let m = Account.mark acct in
          ignore
            (ok_or_stop
               (Ptrace.inject_syscall session acct (Ptrace.Madvise_dontneed { vma; pos; len })));
          inject_ns := !inject_ns + Account.since acct m;
          incr injected;
          madvised := !madvised + len);
  (!restored, !madvised, !injected, !inject_ns)

let empty_dirty = Bitmap.create 0

let run acct (snapshot : Snapshot.t) (p : Process.t) =
  let cost = As.cost p.Process.mem in
  let mark () = Account.mark acct in
  let t0 = mark () in

  (* 1. Interrupt the function process. *)
  match Ptrace.attach acct p with
  | Error _ as e -> e
  | Ok session ->
  try
  let interrupt_ns = Account.since acct t0 in

  (* 2. Read the memory-mapped regions. *)
  let m = mark () in
  let maps = ok_or_stop (Procfs.read_maps acct p) in
  let read_maps_ns = Account.since acct m in

  (* 3. Identify dirtied pages. Soft-dirty tracking pays a scan of every
     mapped page here; Uffd tracking already holds the dirty set but must
     have paid per-write notifications during the invocation. *)
  let m = mark () in
  let pages_scanned, dirty_list =
    match cost.Cost.tracking with
    | Cost.Soft_dirty -> (As.total_pages p.Process.mem, ok_or_stop (Procfs.scan_soft_dirty acct p))
    | Cost.Uffd ->
        (* The manager already holds the dirty set (it took the faults). *)
        let sets = Procfs.dirty_sets p in
        (List.fold_left (fun n (_, d) -> n + Bitmap.count d) 0 sets, sets)
    | Cost.Kernel_list ->
        (* Footnote 6: the kernel hands over just the modified pages. *)
        let sets = Procfs.dirty_sets p in
        let dirty = List.fold_left (fun n (_, d) -> n + Bitmap.count d) 0 sets in
        Account.charge acct (dirty * cost.Cost.pagemap_scan_per_page_ns);
        (dirty, sets)
  in
  let scan_ns = Account.since acct m in
  let dirty_by_id = Hashtbl.create 64 in
  List.iter (fun ((v : Vma.t), d) -> Hashtbl.replace dirty_by_id v.Vma.id d) dirty_list;
  let dirty_of (v : Vma.t) =
    match Hashtbl.find_opt dirty_by_id v.Vma.id with Some d -> d | None -> empty_dirty
  in

  (* 4. Diff the memory layout against the snapshot. *)
  let m = mark () in
  let changes = Layout_diff.diff acct ~cost snapshot maps in
  let diff_ns = Account.since acct m in

  (* 5. Reverse layout changes by injecting syscalls. Heap resizes are
     folded into a single brk restoration below. *)
  let m = mark () in
  let injected = ref 0 in
  let recreated = ref [] in
  let inject call =
    incr injected;
    ok_or_stop (Ptrace.inject_syscall session acct call)
  in
  List.iter
    (fun change ->
      match change with
      | Layout_diff.Added entry -> begin
          match As.find_vma_by_id p.Process.mem entry.Procfs.vma_id with
          | Some vma -> ignore (inject (Ptrace.Munmap vma))
          | None -> ()
        end
      | Layout_diff.Removed snap ->
          let vma =
            inject
              (Ptrace.Mmap_at
                 {
                   start_addr = snap.Snapshot.start_addr;
                   n_pages = snap.Snapshot.n_pages;
                   prot = snap.Snapshot.prot;
                   kind = snap.Snapshot.kind;
                 })
          in
          recreated := (snap, Option.get vma) :: !recreated
      | Layout_diff.Resized { now; snap } ->
          (* Heap resizes that moved brk are folded into the single brk
             restoration below. A heap that was mremap-grown with brk left
             in place (resize_vma, not set_brk) would be missed by that
             fold and keep its dirtied tail across the restore, so it needs
             an explicit mremap like any other region. *)
          let folded_into_brk =
            snap.Snapshot.kind = Vma.Heap && As.brk p.Process.mem <> snapshot.Snapshot.brk
          in
          if not folded_into_brk then begin
            match As.find_vma_by_id p.Process.mem now.Procfs.vma_id with
            | Some vma -> ignore (inject (Ptrace.Mremap { vma; n_pages = snap.Snapshot.n_pages }))
            | None -> ()
          end
      | Layout_diff.Prot_changed { now; snap } -> begin
          match As.find_vma_by_id p.Process.mem now.Procfs.vma_id with
          | Some vma -> ignore (inject (Ptrace.Mprotect (vma, snap.Snapshot.prot)))
          | None -> ()
        end)
    changes;
  if As.brk p.Process.mem <> snapshot.Snapshot.brk then
    ignore (inject (Ptrace.Brk snapshot.Snapshot.brk));
  let syscalls_ns = Account.since acct m in

  (* 6. Restore page contents: dirty pages and presence mismatches in the
     surviving regions, everything present in re-created regions; newly
     paged pages are madvised back to the lazy state. *)
  let m = mark () in
  let restored = ref 0 and madvised = ref 0 in
  let madvise_inject_ns = ref 0 in
  List.iter
    (fun (snap : Snapshot.region) ->
      match As.find_vma p.Process.mem snap.Snapshot.start_addr with
      | None -> ()
      | Some vma ->
          let dirty =
            if List.exists (fun (s, _) -> s == snap) !recreated then empty_dirty
            else dirty_of vma
          in
          let r, md, inj, inj_ns =
            restore_region session acct p.Process.fault snap vma dirty
          in
          restored := !restored + r;
          madvised := !madvised + md;
          injected := !injected + inj;
          madvise_inject_ns := !madvise_inject_ns + inj_ns)
    snapshot.Snapshot.regions;
  let copy_ns = Account.since acct m - !madvise_inject_ns in
  let syscalls_ns = syscalls_ns + !madvise_inject_ns in

  (* 7. Restore registers; reconcile the thread set with the snapshot
     (threads spawned by the invocation are killed, threads that exited are
     recreated — recreation first, so the process is never thread-less). *)
  let m = mark () in
  (* Accumulate re-created threads and append once — the old per-thread
     [threads <- threads @ [th]] was quadratic in thread count. The
     accumulator must still be flushed on a fault: the fail-closed detach
     below charges per thread, and the threads created before the fault
     exist. *)
  let new_threads = ref [] in
  let flush_new () =
    if !new_threads <> [] then begin
      p.Process.threads <- p.Process.threads @ List.rev !new_threads;
      new_threads := []
    end
  in
  (try
     List.iter
       (fun (tid, regs) ->
         let th =
           match Process.find_thread p tid with
           | Some th -> th
           | None ->
               let th = Thread.create ~tid in
               th.Thread.state <- Thread.Stopped;
               new_threads := th :: !new_threads;
               th
         in
         ok_or_stop (Ptrace.setregs session acct th regs))
       snapshot.Snapshot.regs
   with Stop _ as e ->
     flush_new ();
     raise e);
  flush_new ();
  let extras =
    List.filter
      (fun th -> not (List.mem_assoc th.Thread.tid snapshot.Snapshot.regs))
      p.Process.threads
  in
  List.iter (fun th -> Process.exit_thread p th) extras;
  let regs_ns = Account.since acct m in

  (* 8. Reset dirty tracking for the next invocation. *)
  let m = mark () in
  (match cost.Cost.tracking with
  | Cost.Soft_dirty -> ok_or_stop (Procfs.clear_refs acct p)
  | Cost.Uffd | Cost.Kernel_list ->
      (* Re-arm only the pages that were dirtied. *)
      Account.charge acct (!restored * cost.Cost.clear_refs_per_page_ns);
      As.clear_refs p.Process.mem);
  let reset_ns = Account.since acct m in

  (* 9. Detach; the process may accept the next request. *)
  let m = mark () in
  Ptrace.detach session acct;
  let detach_ns = Account.since acct m in

  Ok
    {
      Breakdown.interrupt_ns;
      read_maps_ns;
      scan_ns;
      diff_ns;
      syscalls_ns;
      copy_ns;
      regs_ns;
      reset_ns;
      detach_ns;
      total_ns = Account.since acct t0;
      pages_scanned;
      pages_restored = !restored;
      pages_madvised = !madvised;
      syscalls_injected = !injected;
      threads = Process.n_threads p;
    }
  with Stop site ->
    (* Fail closed: the process is in an unknown, partially-reverted state.
       Resume it (so a kill can reap it) and report the site — the caller
       must poison the container, never serve from it. *)
    Ptrace.detach session acct;
    Error site

let run_exn acct snapshot p =
  match run acct snapshot p with
  | Ok b -> b
  | Error site -> failwith ("Restore.run: fault at " ^ Fault.site_name site)
