(* Unit tests for the Groundhog core: snapshot capture, layout diffing,
   the restore engine's exactness, breakdown accounting, the manager and
   the verifier. *)

module As = Gh_mem.Address_space
module Vma = Gh_mem.Vma
module Bitmap = Gh_mem.Bitmap
module Prot = Gh_mem.Prot
module Process = Gh_proc.Process
module Procfs = Gh_proc.Procfs
module Registers = Gh_proc.Registers
module Thread = Gh_proc.Thread
module Account = Gh_sim.Account
module Rng = Gh_sim.Rng
module Cost = Gh_kernel.Cost
open Groundhog_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cost = Cost.default

let fresh ?(n_threads = 2) () =
  Process.create ~mem:(As.create ~cost ()) ~n_threads ()

let acct () = Account.create ()
let ok = function Ok v -> v | Error _ -> Alcotest.fail "unexpected fault"

let assert_matches snap p =
  match Verify.state_matches snap p with
  | Ok () -> ()
  | Error m -> Alcotest.failf "state mismatch: %a" Verify.pp_mismatch m

(* Warm a process a little so snapshots are non-trivial. *)
let warm p =
  let a = acct () in
  let heap = As.heap p.Process.mem in
  As.dirty_range p.Process.mem a heap ~pos:0 ~len:32 ~value:7;
  let arena = Process.sys_mmap p a ~n_pages:16 ~prot:Prot.rw Vma.Anon in
  As.dirty_range p.Process.mem a arena ~pos:0 ~len:16 ~value:13;
  arena

(* -- Snapshot -- *)

let test_snapshot_contents () =
  let p = fresh () in
  let _arena = warm p in
  let a = acct () in
  let snap = Snapshot.capture_exn a p in
  check_int "regions = vmas" (As.vma_count p.Process.mem)
    (List.length snap.Snapshot.regions);
  check_int "thread registers captured" (Process.n_threads p)
    (List.length snap.Snapshot.regs);
  check_int "present pages counted" (As.present_pages p.Process.mem)
    snap.Snapshot.present_pages;
  check_int "brk recorded" (As.brk p.Process.mem) snap.Snapshot.brk;
  check_bool "capture cost recorded" true (snap.Snapshot.capture_ns > 0);
  check_bool "charged to account" true (Account.total a >= snap.Snapshot.capture_ns);
  (* Capture arms the soft-dirty tracking. *)
  check_bool "tracking armed" true (As.sd_enabled p.Process.mem);
  check_int "SD bits reset" 0 (As.dirty_pages p.Process.mem);
  (* The heap's snapshot holds the data. *)
  let heap = As.heap p.Process.mem in
  let r = Option.get (Snapshot.find_region snap ~start_addr:heap.Vma.start_addr) in
  check_int "heap word copied" 7 r.Snapshot.data.(0);
  check_bool "present bitmap copied" true (Bitmap.get r.Snapshot.present 0)

let test_snapshot_is_a_copy () =
  let p = fresh () in
  ignore (warm p);
  let snap = Snapshot.capture_exn (acct ()) p in
  let heap = As.heap p.Process.mem in
  As.write_page p.Process.mem (acct ()) heap 0 999;
  let r = Option.get (Snapshot.find_region snap ~start_addr:heap.Vma.start_addr) in
  check_int "snapshot unaffected by later writes" 7 r.Snapshot.data.(0)

let test_snapshot_memory_words () =
  let p = fresh () in
  ignore (warm p);
  let snap = Snapshot.capture_exn (acct ()) p in
  check_int "buffer covers all mapped pages" (As.total_pages p.Process.mem)
    (Snapshot.memory_words snap)

(* -- Layout diff -- *)

let test_layout_diff_kinds () =
  let p = fresh () in
  let arena = warm p in
  let extra = Process.sys_mmap p (acct ()) ~n_pages:8 ~prot:Prot.rw Vma.Anon in
  let snap = Snapshot.capture_exn (acct ()) p in
  (* No changes: empty diff. *)
  let maps = ok (Procfs.read_maps (acct ()) p) in
  Alcotest.(check int) "no changes" 0 (List.length (Layout_diff.diff (acct ()) ~cost snap maps));
  (* One added, one removed, one prot change, one resize. *)
  let a = acct () in
  Process.sys_munmap p a extra;
  let added = Process.sys_mmap p a ~n_pages:4 ~prot:Prot.rw Vma.Anon in
  ignore added;
  Process.sys_mprotect p a arena Prot.r;
  As.resize_vma p.Process.mem arena 20;
  let maps = ok (Procfs.read_maps (acct ()) p) in
  let changes = Layout_diff.diff (acct ()) ~cost snap maps in
  let count kind = List.length (List.filter kind changes) in
  check_int "added" 1 (count (function Layout_diff.Added _ -> true | _ -> false));
  check_int "removed" 1 (count (function Layout_diff.Removed _ -> true | _ -> false));
  check_int "resized" 1 (count (function Layout_diff.Resized _ -> true | _ -> false));
  check_int "prot changed" 1 (count (function Layout_diff.Prot_changed _ -> true | _ -> false))

(* -- Restore roundtrips: each mutation class alone, then combined -- *)

let roundtrip mutate =
  let p = fresh () in
  ignore (warm p);
  let snap = Snapshot.capture_exn (acct ()) p in
  let a = acct () in
  mutate p a;
  let breakdown = Restore.run_exn (acct ()) snap p in
  assert_matches snap p;
  (breakdown, p, snap)

let test_restore_plain_writes () =
  let breakdown, _, _ =
    roundtrip (fun p a ->
        let heap = As.heap p.Process.mem in
        As.dirty_range p.Process.mem a heap ~pos:4 ~len:10 ~value:42)
  in
  check_int "restored the dirty pages" 10 breakdown.Breakdown.pages_restored

let test_restore_added_region () =
  let breakdown, p, _ =
    roundtrip (fun p a ->
        let v = Process.sys_mmap p a ~n_pages:8 ~prot:Prot.rw Vma.Anon in
        As.dirty_range p.Process.mem a v ~pos:0 ~len:8 ~value:5)
  in
  check_int "region gone" 5 (As.vma_count p.Process.mem);
  check_bool "munmap injected" true (breakdown.Breakdown.syscalls_injected >= 1)

let test_restore_removed_region () =
  let breakdown, p, snap =
    roundtrip (fun p a ->
        let heap_addr = (As.heap p.Process.mem).Vma.start_addr in
        ignore heap_addr;
        (* Unmap the warmed arena (the last-mapped anon region). *)
        let arena =
          List.find (fun (v : Vma.t) -> v.Vma.kind = Vma.Anon) (List.rev (As.vmas p.Process.mem))
        in
        Process.sys_munmap p a arena)
  in
  ignore snap;
  check_int "region recreated" 5 (As.vma_count p.Process.mem);
  (* Recreated region's contents must be back. *)
  let arena =
    List.find (fun (v : Vma.t) -> v.Vma.kind = Vma.Anon) (List.rev (As.vmas p.Process.mem))
  in
  check_int "data refilled" 13 (As.peek arena 0);
  check_bool "pages copied back" true (breakdown.Breakdown.pages_restored >= 16)

let test_restore_brk_changes () =
  let _, p, snap = roundtrip (fun p a -> Process.sys_brk p a (As.brk p.Process.mem + 65536)) in
  check_int "brk restored" snap.Snapshot.brk (As.brk p.Process.mem);
  let _, p, snap =
    roundtrip (fun p a -> Process.sys_brk p a (As.brk p.Process.mem - 16384))
  in
  check_int "brk restored after shrink" snap.Snapshot.brk (As.brk p.Process.mem)

let test_restore_prot_change () =
  let _, p, _ =
    roundtrip (fun p a ->
        let arena =
          List.find (fun (v : Vma.t) -> v.Vma.kind = Vma.Anon) (As.vmas p.Process.mem)
        in
        Process.sys_mprotect p a arena Prot.r)
  in
  let arena = List.find (fun (v : Vma.t) -> v.Vma.kind = Vma.Anon) (As.vmas p.Process.mem) in
  check_bool "prot back to rw" true (Prot.equal arena.Vma.prot Prot.rw)

let test_restore_registers () =
  let _, p, snap =
    roundtrip (fun p _ ->
        let rng = Rng.create 3 in
        List.iter (fun th -> Registers.scramble th.Thread.regs rng) p.Process.threads)
  in
  List.iter
    (fun (tid, regs) ->
      let th = Option.get (Process.find_thread p tid) in
      check_bool "registers restored" true (Registers.equal th.Thread.regs regs))
    snap.Snapshot.regs

let test_restore_thread_churn () =
  let _, p, snap =
    roundtrip (fun p a ->
        let spawned = Process.spawn_thread p a in
        ignore spawned;
        ignore (Process.spawn_thread p a))
  in
  check_int "thread set restored" (List.length snap.Snapshot.regs) (Process.n_threads p)

let test_restore_newly_paged_pages_madvised () =
  let breakdown, p, _ =
    roundtrip (fun p a ->
        let heap = As.heap p.Process.mem in
        (* Touch pages beyond what the warm-up paged in. *)
        As.read_range p.Process.mem a heap ~pos:100 ~len:20)
  in
  check_int "20 pages madvised" 20 breakdown.Breakdown.pages_madvised;
  let heap = As.heap p.Process.mem in
  check_bool "page lazy again" false (Bitmap.get heap.Vma.present 100)

let test_restore_function_madvised_pages_refilled () =
  let breakdown, p, _ =
    roundtrip (fun p a ->
        let heap = As.heap p.Process.mem in
        (* The function drops pages the snapshot holds. *)
        Process.sys_madvise_dontneed p a heap ~pos:0 ~len:8)
  in
  let heap = As.heap p.Process.mem in
  check_int "content back" 7 (As.peek heap 0);
  check_bool "present again" true (Bitmap.get heap.Vma.present 0);
  check_bool "pages restored" true (breakdown.Breakdown.pages_restored >= 8)

(* Regression: a VMA grown mid-invocation (mremap-style, via resize_vma)
   has pages past the end of the snapshot's dirty map. Classify must treat
   those as dirty, and the layout reversal must shrink the region back so
   the dirtied tail cannot leak into the next request. *)
let test_restore_grown_vma_dirty_tail () =
  let p = fresh () in
  let arena = warm p in
  let snap = Snapshot.capture_exn (acct ()) p in
  let a = acct () in
  As.resize_vma p.Process.mem arena 24;
  As.dirty_range p.Process.mem a arena ~pos:16 ~len:8 ~value:31337;
  let b = Restore.run_exn (acct ()) snap p in
  assert_matches snap p;
  let arena = Option.get (As.find_vma_by_id p.Process.mem arena.Vma.id) in
  check_int "arena shrunk back" 16 arena.Vma.n_pages;
  check_bool "mremap injected" true (b.Breakdown.syscalls_injected >= 1)

(* Regression: growing the heap with mremap (resize_vma) leaves brk where
   it was, so the brk-restoration fold never fires; without an explicit
   mremap the dirtied tail would survive the restore as stale data. *)
let test_restore_heap_grown_by_mremap () =
  let p = fresh () in
  ignore (warm p);
  let snap = Snapshot.capture_exn (acct ()) p in
  let a = acct () in
  let heap = As.heap p.Process.mem in
  let old_n = heap.Vma.n_pages in
  As.resize_vma p.Process.mem heap (old_n + 8);
  check_int "brk untouched by mremap growth" snap.Snapshot.brk (As.brk p.Process.mem);
  As.dirty_range p.Process.mem a heap ~pos:old_n ~len:8 ~value:666;
  ignore (Restore.run_exn (acct ()) snap p);
  assert_matches snap p;
  let heap = As.heap p.Process.mem in
  check_int "heap shrunk back" old_n heap.Vma.n_pages;
  (* The next request growing the heap again must see zeros, not the
     previous request's writes. *)
  Process.sys_brk p a (As.brk p.Process.mem + (8 * Vma.page_size));
  let heap = As.heap p.Process.mem in
  check_int "no stale data in regrown tail" 0 (As.peek heap old_n)

let test_restore_stack_zeroing () =
  let breakdown, p, _ =
    roundtrip (fun p a ->
        let stack = As.stack p.Process.mem in
        As.dirty_range p.Process.mem a stack ~pos:0 ~len:4 ~value:77)
  in
  ignore breakdown;
  let stack = As.stack p.Process.mem in
  check_int "stack zeroed/madvised" 0 (As.peek stack 0)

let test_restore_combined () =
  let breakdown, _, _ =
    roundtrip (fun p a ->
        let heap = As.heap p.Process.mem in
        As.dirty_range p.Process.mem a heap ~pos:0 ~len:32 ~value:1000;
        let v = Process.sys_mmap p a ~n_pages:12 ~prot:Prot.rw Vma.Anon in
        As.dirty_range p.Process.mem a v ~pos:0 ~len:12 ~value:1001;
        Process.sys_brk p a (As.brk p.Process.mem + 32768);
        let arena =
          List.find (fun (x : Vma.t) -> x.Vma.kind = Vma.Anon) (As.vmas p.Process.mem)
        in
        Process.sys_mprotect p a arena Prot.r;
        let rng = Rng.create 5 in
        List.iter (fun th -> Registers.scramble th.Thread.regs rng) p.Process.threads;
        ignore (Process.spawn_thread p a))
  in
  check_bool "several syscalls injected" true (breakdown.Breakdown.syscalls_injected >= 3);
  check_bool "total covers steps" true
    (breakdown.Breakdown.total_ns
    >= breakdown.Breakdown.interrupt_ns + breakdown.Breakdown.copy_ns)

let test_restore_idempotent () =
  let p = fresh () in
  ignore (warm p);
  let snap = Snapshot.capture_exn (acct ()) p in
  let a = acct () in
  As.dirty_range p.Process.mem a (As.heap p.Process.mem) ~pos:0 ~len:8 ~value:9;
  ignore (Restore.run_exn (acct ()) snap p);
  assert_matches snap p;
  (* Restoring an already-clean process must also be exact (and cheap). *)
  let b = Restore.run_exn (acct ()) snap p in
  assert_matches snap p;
  check_int "nothing to copy" 0 b.Breakdown.pages_restored

let test_restore_breakdown_consistency () =
  let breakdown, _, _ =
    roundtrip (fun p a ->
        As.dirty_range p.Process.mem a (As.heap p.Process.mem) ~pos:0 ~len:16 ~value:3)
  in
  let steps_sum = List.fold_left (fun n (_, ns) -> n + ns) 0 (Breakdown.steps breakdown) in
  check_int "steps sum to total" breakdown.Breakdown.total_ns steps_sum;
  check_bool "scan covered all pages" true (breakdown.Breakdown.pages_scanned > 0);
  check_int "threads recorded" 2 breakdown.Breakdown.threads

(* -- Tracking-mode variants of the restore engine -- *)

let roundtrip_with_cost cost mutate =
  let mem = As.create ~cost () in
  let p = Process.create ~mem ~n_threads:2 () in
  let a = acct () in
  As.dirty_range mem a (As.heap mem) ~pos:0 ~len:32 ~value:7;
  let snap = Snapshot.capture_exn (acct ()) p in
  mutate p (acct ());
  let breakdown = Restore.run_exn (acct ()) snap p in
  assert_matches snap p;
  breakdown

let test_restore_kernel_list_scans_dirty_only () =
  let mutate p a = As.dirty_range p.Process.mem a (As.heap p.Process.mem) ~pos:0 ~len:12 ~value:1 in
  let sd = roundtrip_with_cost Cost.default mutate in
  let klist = roundtrip_with_cost Cost.kernel_list_tracking mutate in
  check_int "soft-dirty scans every mapped page" sd.Breakdown.pages_scanned
    (let mem = As.create ~cost () in
     As.total_pages mem);
  check_int "kernel-list scans only the dirty pages" 12 klist.Breakdown.pages_scanned;
  check_bool "kernel-list restore is cheaper" true
    (klist.Breakdown.total_ns < sd.Breakdown.total_ns)

let test_restore_uffd_mode () =
  let mutate p a = As.dirty_range p.Process.mem a (As.heap p.Process.mem) ~pos:0 ~len:12 ~value:1 in
  let uffd = roundtrip_with_cost Cost.uffd_tracking mutate in
  check_int "uffd already holds the dirty set" 12 uffd.Breakdown.pages_scanned;
  check_int "and still restores them" 12 uffd.Breakdown.pages_restored

let test_restore_with_thp_granularity () =
  let mem = As.create ~cost () in
  let p = Process.create ~mem ~n_threads:1 () in
  let heap = As.heap mem in
  heap.Vma.fault_gran <- 16;
  let a = acct () in
  As.dirty_range mem a heap ~pos:0 ~len:64 ~value:7;
  let snap = Snapshot.capture_exn (acct ()) p in
  (* Redirty through huge-page faults; restore must still be exact. *)
  As.dirty_range mem a heap ~pos:0 ~len:64 ~value:9;
  let b = Restore.run_exn (acct ()) snap p in
  assert_matches snap p;
  check_int "all 64 base pages restored" 64 b.Breakdown.pages_restored

(* -- Verify: detects every class of divergence -- *)

let expect_mismatch what snap p =
  match Verify.state_matches snap p with
  | Ok () -> Alcotest.failf "expected %s mismatch" what
  | Error m -> Alcotest.(check string) ("detects " ^ what) what m.Verify.what

let test_verify_detects () =
  let p = fresh () in
  ignore (warm p);
  let snap = Snapshot.capture_exn (acct ()) p in
  assert_matches snap p;
  (* page content *)
  let heap = As.heap p.Process.mem in
  let saved = As.peek heap 0 in
  As.poke heap 0 12345;
  expect_mismatch "page content" snap p;
  As.poke heap 0 saved;
  (* presence *)
  As.madvise_dontneed p.Process.mem heap ~pos:1 ~len:1;
  expect_mismatch "presence" snap p;
  As.poke heap 1 7;
  assert_matches snap p;
  (* brk / region size *)
  As.set_brk p.Process.mem (As.brk p.Process.mem + 4096);
  expect_mismatch "brk" snap p;
  As.set_brk p.Process.mem snap.Snapshot.brk;
  (* protection *)
  As.mprotect p.Process.mem heap Prot.r;
  expect_mismatch "protection" snap p;
  As.mprotect p.Process.mem heap Prot.rw;
  (* extra region: the pairwise walk trips on the interloper's address *)
  let v = As.map p.Process.mem ~n_pages:2 ~prot:Prot.rw Vma.Anon in
  expect_mismatch "region address" snap p;
  As.unmap p.Process.mem v;
  (* registers *)
  let th = Process.main_thread p in
  th.Thread.regs.Registers.rip <- th.Thread.regs.Registers.rip + 1;
  expect_mismatch "registers" snap p;
  th.Thread.regs.Registers.rip <- th.Thread.regs.Registers.rip - 1;
  (* thread count *)
  ignore (Process.spawn_thread p (acct ()));
  expect_mismatch "thread count" snap p

(* -- Breakdown arithmetic -- *)

let test_breakdown_arithmetic () =
  let b, _, _ =
    roundtrip (fun p a ->
        As.dirty_range p.Process.mem a (As.heap p.Process.mem) ~pos:0 ~len:8 ~value:1)
  in
  let doubled = Breakdown.add b b in
  check_int "add doubles total" (2 * b.Breakdown.total_ns) doubled.Breakdown.total_ns;
  check_int "add doubles pages" (2 * b.Breakdown.pages_restored) doubled.Breakdown.pages_restored;
  let halved = Breakdown.scale doubled 0.5 in
  check_bool "scale halves back (rounding)" true
    (abs (halved.Breakdown.total_ns - b.Breakdown.total_ns) <= 1);
  check_int "zero is neutral" b.Breakdown.total_ns
    (Breakdown.add b Breakdown.zero).Breakdown.total_ns;
  check_int "nine steps" 9 (List.length (Breakdown.steps b));
  let rendered = Format.asprintf "%a" Breakdown.pp b in
  check_bool "pp renders" true (String.length rendered > 0)

(* -- Manager -- *)

let test_manager_lifecycle () =
  let p = fresh () in
  ignore (warm p);
  let mgr = Manager.create ~paranoid:true p in
  check_bool "not clean before snapshot" false (Manager.is_clean mgr);
  (try
     ignore (Manager.restore mgr);
     Alcotest.fail "restore before snapshot should fail"
   with Failure _ -> ());
  let snap_ns = Manager.take_snapshot_exn mgr in
  check_bool "snapshot cost positive" true (snap_ns > 0);
  check_bool "clean after snapshot" true (Manager.is_clean mgr);
  (try
     ignore (Manager.take_snapshot mgr);
     Alcotest.fail "double snapshot should fail"
   with Failure _ -> ());
  Manager.mark_dirty mgr;
  check_bool "dirty after request" false (Manager.is_clean mgr);
  As.dirty_range p.Process.mem (acct ()) (As.heap p.Process.mem) ~pos:0 ~len:4 ~value:1;
  let b = Manager.restore_exn mgr in
  check_bool "clean after restore" true (Manager.is_clean mgr);
  check_int "one restore" 1 (Manager.restores_performed mgr);
  check_bool "manager time accumulates" true
    (Manager.total_manager_ns mgr >= snap_ns + b.Breakdown.total_ns);
  Manager.mark_dirty mgr;
  Manager.skip_restore mgr;
  check_bool "policy skip marks clean" true (Manager.is_clean mgr);
  check_int "skip does not restore" 1 (Manager.restores_performed mgr)


let test_manager_poison_absorbing () =
  let p = fresh () in
  ignore (warm p);
  let mgr = Manager.create p in
  ignore (Manager.take_snapshot_exn mgr);
  Manager.mark_dirty mgr;
  Manager.poison mgr "killed after hang";
  check_bool "poisoned" true (Manager.status mgr = Manager.Poisoned);
  check_bool "not clean" false (Manager.is_clean mgr);
  (* Absorbing: restore must refuse rather than launder the state. *)
  (match Manager.restore mgr with
  | Ok _ -> Alcotest.fail "restore on a poisoned manager must fail"
  | Error f -> check_bool "cause reported" true (String.length f.Manager.what > 0));
  check_bool "still poisoned" true (Manager.status mgr = Manager.Poisoned);
  (try
     Manager.skip_restore mgr;
     Alcotest.fail "skip_restore must reject a poisoned container"
   with Invalid_argument _ -> ());
  Manager.mark_dirty mgr;
  check_bool "mark_dirty does not unpoison" true (Manager.status mgr = Manager.Poisoned);
  check_bool "failure counted" true (Manager.failures mgr >= 1);
  match Manager.last_failure mgr with
  | Some _ -> ()
  | None -> Alcotest.fail "last_failure recorded"

let test_manager_snapshot_fault_poisons () =
  let p = fresh () in
  ignore (warm p);
  (* Fault every snapshot page copy: the capture must fail and poison. *)
  Gh_proc.Process.set_fault p
    (Gh_sim.Fault.uniform ~seed:7 ~prob:1.0 [ Gh_sim.Fault.Snapshot_copy ]);
  let mgr = Manager.create p in
  (match Manager.take_snapshot mgr with
  | Ok _ -> Alcotest.fail "faulted capture must not succeed"
  | Error f -> check_bool "time burned recorded" true (f.Manager.spent_ns >= 0));
  check_bool "poisoned by capture fault" true (Manager.status mgr = Manager.Poisoned)

let () =
  Alcotest.run "groundhog_core"
    [
      ( "snapshot",
        [
          Alcotest.test_case "contents" `Quick test_snapshot_contents;
          Alcotest.test_case "is a copy" `Quick test_snapshot_is_a_copy;
          Alcotest.test_case "memory words" `Quick test_snapshot_memory_words;
        ] );
      ("layout-diff", [ Alcotest.test_case "change kinds" `Quick test_layout_diff_kinds ]);
      ( "restore",
        [
          Alcotest.test_case "plain writes" `Quick test_restore_plain_writes;
          Alcotest.test_case "added region" `Quick test_restore_added_region;
          Alcotest.test_case "removed region" `Quick test_restore_removed_region;
          Alcotest.test_case "brk changes" `Quick test_restore_brk_changes;
          Alcotest.test_case "prot change" `Quick test_restore_prot_change;
          Alcotest.test_case "registers" `Quick test_restore_registers;
          Alcotest.test_case "thread churn" `Quick test_restore_thread_churn;
          Alcotest.test_case "newly paged madvised" `Quick test_restore_newly_paged_pages_madvised;
          Alcotest.test_case "madvised pages refilled" `Quick
            test_restore_function_madvised_pages_refilled;
          Alcotest.test_case "grown vma dirty tail" `Quick test_restore_grown_vma_dirty_tail;
          Alcotest.test_case "heap grown by mremap" `Quick test_restore_heap_grown_by_mremap;
          Alcotest.test_case "stack zeroing" `Quick test_restore_stack_zeroing;
          Alcotest.test_case "combined mutations" `Quick test_restore_combined;
          Alcotest.test_case "idempotent" `Quick test_restore_idempotent;
          Alcotest.test_case "breakdown consistency" `Quick test_restore_breakdown_consistency;
        ] );
      ( "tracking-modes",
        [
          Alcotest.test_case "kernel-list scans dirty only" `Quick
            test_restore_kernel_list_scans_dirty_only;
          Alcotest.test_case "uffd mode" `Quick test_restore_uffd_mode;
          Alcotest.test_case "THP granularity restore" `Quick test_restore_with_thp_granularity;
        ] );
      ("verify", [ Alcotest.test_case "detects every divergence" `Quick test_verify_detects ]);
      ("breakdown", [ Alcotest.test_case "arithmetic" `Quick test_breakdown_arithmetic ]);
      ( "manager",
        [
          Alcotest.test_case "lifecycle" `Quick test_manager_lifecycle;
          Alcotest.test_case "poison absorbing" `Quick test_manager_poison_absorbing;
          Alcotest.test_case "snapshot fault poisons" `Quick test_manager_snapshot_fault_poisons;
        ] );
    ]
