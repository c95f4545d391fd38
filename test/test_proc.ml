(* Unit tests for the process substrate: registers, threads, processes,
   procfs and ptrace. *)

open Gh_proc
module As = Gh_mem.Address_space
module Vma = Gh_mem.Vma
module Prot = Gh_mem.Prot
module Account = Gh_sim.Account
module Rng = Gh_sim.Rng
module Cost = Gh_kernel.Cost

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cost = Cost.default

let fresh ?(n_threads = 1) () =
  Process.create ~mem:(As.create ~cost ()) ~n_threads ()

let acct () = Account.create ()
let ok = function Ok v -> v | Error _ -> Alcotest.fail "unexpected fault"

(* -- Registers / threads -- *)

let test_registers_copy_assign_equal () =
  let rng = Rng.create 1 in
  let a = Registers.create () in
  Registers.scramble a rng;
  let b = Registers.copy a in
  check_bool "copy equal" true (Registers.equal a b);
  b.Registers.rip <- b.Registers.rip + 1;
  check_bool "copy is deep" false (Registers.equal a b);
  Registers.assign b ~from:a;
  check_bool "assign restores" true (Registers.equal a b)

let test_thread_lifecycle () =
  let p = fresh () in
  let a = acct () in
  check_int "one thread" 1 (Process.n_threads p);
  let th = Process.spawn_thread p a in
  check_int "two threads" 2 (Process.n_threads p);
  check_bool "charged" true (Account.total a > 0);
  Alcotest.(check bool) "findable" true (Process.find_thread p th.Thread.tid <> None);
  Process.exit_thread p th;
  check_int "back to one" 1 (Process.n_threads p);
  Alcotest.check_raises "last thread" (Invalid_argument "Process.exit_thread: last thread")
    (fun () -> Process.exit_thread p (Process.main_thread p))

let test_unique_pids_and_tids () =
  let p1 = fresh () and p2 = fresh ~n_threads:3 () in
  check_bool "distinct pids" true (p1.Process.pid <> p2.Process.pid);
  let tids = List.map (fun th -> th.Thread.tid) p2.Process.threads in
  check_int "3 distinct tids" 3 (List.length (List.sort_uniq compare tids))

(* -- Syscall wrappers -- *)

let test_syscalls_charge_and_apply () =
  let p = fresh () in
  let a = acct () in
  let v = Process.sys_mmap p a ~n_pages:8 ~prot:Prot.rw Vma.Anon in
  check_int "mmap charged" cost.Cost.mmap_ns (Account.total a);
  check_int "mapped" 5 (As.vma_count p.Process.mem);
  let before = Account.total a in
  Process.sys_mprotect p a v Prot.r;
  check_int "mprotect charged" cost.Cost.mprotect_ns (Account.total a - before);
  check_bool "applied" true (Prot.equal v.Vma.prot Prot.r);
  let before = Account.total a in
  Process.sys_munmap p a v;
  check_int "munmap charged" cost.Cost.munmap_ns (Account.total a - before);
  check_int "unmapped" 4 (As.vma_count p.Process.mem);
  let before = Account.total a in
  Process.sys_brk p a (As.brk p.Process.mem + 4096);
  check_int "brk charged" cost.Cost.brk_ns (Account.total a - before)

(* -- Fork -- *)

let test_fork_semantics () =
  let p = fresh ~n_threads:1 () in
  let a = acct () in
  let heap = As.heap p.Process.mem in
  As.dirty_range p.Process.mem a heap ~pos:0 ~len:16 ~value:5;
  let before = Account.total a in
  let child = Process.fork p a in
  let fork_cost = Account.total a - before in
  check_bool "fork charged proportionally" true
    (fork_cost
    >= cost.Cost.fork_base_ns
       + (As.present_pages p.Process.mem * cost.Cost.fork_per_present_page_ns));
  check_int "child has one thread" 1 (Process.n_threads child);
  check_bool "distinct pid" true (child.Process.pid <> p.Process.pid);
  check_int "child sees data" 5 (As.peek (As.heap child.Process.mem) 0);
  check_bool "caller registers copied" true
    (Registers.equal (Process.main_thread p).Thread.regs
       (Process.main_thread child).Thread.regs)

let test_fork_multithreaded_keeps_only_caller () =
  let p = fresh ~n_threads:4 () in
  let child = Process.fork p (acct ()) in
  check_int "only the calling thread" 1 (Process.n_threads child);
  check_int "parent unchanged" 4 (Process.n_threads p)

(* -- Procfs -- *)

let test_procfs_maps () =
  let p = fresh () in
  let a = acct () in
  let maps = ok (Procfs.read_maps a p) in
  check_int "entries match vmas" (As.vma_count p.Process.mem) (List.length maps);
  check_int "charged per vma" (List.length maps * cost.Cost.maps_read_per_vma_ns)
    (Account.total a);
  let rec ascending = function
    | (x : Procfs.maps_entry) :: (y : Procfs.maps_entry) :: rest ->
        check_bool "ascending" true (x.Procfs.start_addr < y.Procfs.start_addr);
        ascending (y :: rest)
    | _ -> ()
  in
  ascending maps

let test_procfs_scan_and_clear () =
  let p = fresh () in
  let a = acct () in
  let heap = As.heap p.Process.mem in
  As.dirty_range p.Process.mem a heap ~pos:2 ~len:5 ~value:1;
  let before = Account.total a in
  let sets = ok (Procfs.scan_soft_dirty a p) in
  check_int "scan charged per mapped page"
    (As.total_pages p.Process.mem * cost.Cost.pagemap_scan_per_page_ns)
    (Account.total a - before);
  let dirty_total = List.fold_left (fun n (_, d) -> n + Gh_mem.Bitmap.count d) 0 sets in
  check_int "sees the dirty pages" 5 dirty_total;
  (* The returned bitmaps are copies: clearing afterwards must not mutate
     what the scan returned. *)
  ok (Procfs.clear_refs a p);
  let dirty_after = List.fold_left (fun n (_, d) -> n + Gh_mem.Bitmap.count d) 0 sets in
  check_int "scan result is a snapshot" 5 dirty_after;
  check_int "process itself is clean" 0 (As.dirty_pages p.Process.mem)

(* -- Ptrace -- *)

let test_ptrace_attach_detach () =
  let p = fresh ~n_threads:2 () in
  let a = acct () in
  let s = ok (Ptrace.attach a p) in
  check_bool "attached" true (Ptrace.is_attached p);
  List.iter
    (fun th -> check_bool "stopped" true (th.Thread.state = Thread.Stopped))
    p.Process.threads;
  check_int "attach + 2 interrupts"
    (cost.Cost.ptrace_attach_ns + (2 * cost.Cost.ptrace_interrupt_per_thread_ns))
    (Account.total a);
  (try
     ignore (Ptrace.attach (acct ()) p);
     Alcotest.fail "double attach should raise"
   with Ptrace.Already_attached -> ());
  Ptrace.detach s a;
  check_bool "detached" false (Ptrace.is_attached p);
  List.iter
    (fun th -> check_bool "running" true (th.Thread.state = Thread.Running))
    p.Process.threads;
  (* Idempotent: detaching a dead session is a free no-op — the recovery
     path may kill a container whose restore already tore the session
     down. *)
  let before = Account.total a in
  Ptrace.detach s a;
  check_int "second detach is free" before (Account.total a);
  check_bool "still detached" false (Ptrace.is_attached p)

let test_ptrace_regs () =
  let p = fresh () in
  let a = acct () in
  let rng = Rng.create 2 in
  let th = Process.main_thread p in
  Registers.scramble th.Thread.regs rng;
  let s = ok (Ptrace.attach a p) in
  let saved = ok (Ptrace.getregs s a th) in
  check_bool "copy equal" true (Registers.equal saved th.Thread.regs);
  Registers.scramble th.Thread.regs rng;
  check_bool "diverged" false (Registers.equal saved th.Thread.regs);
  ok (Ptrace.setregs s a th saved);
  check_bool "restored" true (Registers.equal saved th.Thread.regs);
  Ptrace.detach s a

let test_ptrace_inject_syscalls () =
  let p = fresh () in
  let a = acct () in
  let s = ok (Ptrace.attach a p) in
  let v =
    ok
      (Ptrace.inject_syscall s a
         (Ptrace.Mmap_at
            { start_addr = 0x5000_0000_0000; n_pages = 4; prot = Prot.rw; kind = Vma.Anon }))
  in
  check_bool "mmap returns vma" true (v <> None);
  check_int "mapped" 5 (As.vma_count p.Process.mem);
  let v = Option.get v in
  ignore (Ptrace.inject_syscall s a (Ptrace.Mprotect (v, Prot.r)));
  check_bool "prot applied" true (Prot.equal v.Vma.prot Prot.r);
  ignore (Ptrace.inject_syscall s a (Ptrace.Mremap { vma = v; n_pages = 2 }));
  check_int "resized" 2 v.Vma.n_pages;
  ignore (Ptrace.inject_syscall s a (Ptrace.Munmap v));
  check_int "unmapped" 4 (As.vma_count p.Process.mem);
  ignore (Ptrace.inject_syscall s a (Ptrace.Brk (As.brk p.Process.mem + 4096)));
  Ptrace.detach s a

let test_ptrace_write_pages_costs () =
  let p = fresh () in
  let a = acct () in
  let heap = As.heap p.Process.mem in
  let s = ok (Ptrace.attach a p) in
  let src = Array.init 64 (fun i -> i + 100) in
  let before = Account.total a in
  ok (Ptrace.write_pages s a heap ~pos:0 ~len:64 ~src ~src_pos:0);
  check_int "coalesced: one setup + per-page"
    (cost.Cost.restore_copy_run_setup_ns + (64 * cost.Cost.restore_copy_per_page_ns))
    (Account.total a - before);
  check_int "data written" 100 (As.peek heap 0);
  check_int "data written (last)" 163 (As.peek heap 63);
  (try
     ignore (Ptrace.write_pages s a heap ~pos:0 ~len:10_000_000 ~src ~src_pos:0);
     Alcotest.fail "bounds should raise"
   with Invalid_argument _ -> ());
  Ptrace.detach s a

let test_ptrace_zero_pages () =
  let p = fresh () in
  let a = acct () in
  let heap = As.heap p.Process.mem in
  As.dirty_range p.Process.mem a heap ~pos:0 ~len:4 ~value:9;
  let s = ok (Ptrace.attach a p) in
  ok (Ptrace.zero_pages s a heap ~pos:0 ~len:4);
  check_int "zeroed" 0 (As.peek heap 0);
  Ptrace.detach s a

let test_no_coalescing_profile () =
  let m = As.create ~cost:Cost.no_coalescing () in
  let p = Process.create ~mem:m ~n_threads:1 () in
  let a = acct () in
  let heap = As.heap m in
  let s = ok (Ptrace.attach a p) in
  let src = Array.make 16 1 in
  let before = Account.total a in
  ok (Ptrace.write_pages s a heap ~pos:0 ~len:16 ~src ~src_pos:0);
  check_int "setup charged per page"
    ((16 * Cost.no_coalescing.Cost.restore_copy_run_setup_ns)
    + (16 * Cost.no_coalescing.Cost.restore_copy_per_page_ns))
    (Account.total a - before);
  Ptrace.detach s a

let () =
  Alcotest.run "gh_proc"
    [
      ( "threads",
        [
          Alcotest.test_case "registers" `Quick test_registers_copy_assign_equal;
          Alcotest.test_case "thread lifecycle" `Quick test_thread_lifecycle;
          Alcotest.test_case "unique ids" `Quick test_unique_pids_and_tids;
        ] );
      ("syscalls", [ Alcotest.test_case "charge and apply" `Quick test_syscalls_charge_and_apply ]);
      ( "fork",
        [
          Alcotest.test_case "semantics" `Quick test_fork_semantics;
          Alcotest.test_case "multithreaded keeps caller" `Quick
            test_fork_multithreaded_keeps_only_caller;
        ] );
      ( "procfs",
        [
          Alcotest.test_case "maps" `Quick test_procfs_maps;
          Alcotest.test_case "scan and clear" `Quick test_procfs_scan_and_clear;
        ] );
      ( "ptrace",
        [
          Alcotest.test_case "attach/detach" `Quick test_ptrace_attach_detach;
          Alcotest.test_case "registers" `Quick test_ptrace_regs;
          Alcotest.test_case "syscall injection" `Quick test_ptrace_inject_syscalls;
          Alcotest.test_case "write_pages costs" `Quick test_ptrace_write_pages_costs;
          Alcotest.test_case "zero_pages" `Quick test_ptrace_zero_pages;
          Alcotest.test_case "no-coalescing profile" `Quick test_no_coalescing_profile;
        ] );
    ]
