type tracking = Soft_dirty | Uffd | Kernel_list

type t = {
  tracking : tracking;
  uffd_fault_ns : int;
  page_write_ns : int;
  page_read_ns : int;
  sd_fault_ns : int;
  cow_fault_ns : int;
  first_touch_fault_ns : int;
  demand_zero_fault_ns : int;
  maps_read_per_vma_ns : int;
  pagemap_scan_per_page_ns : int;
  clear_refs_per_page_ns : int;
  ptrace_attach_ns : int;
  ptrace_interrupt_per_thread_ns : int;
  ptrace_getregs_per_thread_ns : int;
  ptrace_setregs_per_thread_ns : int;
  ptrace_detach_per_thread_ns : int;
  syscall_inject_ns : int;
  snapshot_copy_per_page_ns : int;
  restore_copy_per_page_ns : int;
  restore_copy_run_setup_ns : int;
  coalesce_runs : bool;
  stack_zero_per_page_ns : int;
  layout_diff_per_vma_ns : int;
  mmap_ns : int;
  munmap_ns : int;
  brk_ns : int;
  mprotect_ns : int;
  madvise_ns : int;
  fork_base_ns : int;
  fork_per_vma_ns : int;
  fork_per_present_page_ns : int;
  faasm_reset_base_ns : int;
  faasm_reset_per_dirty_page_ns : int;
  hash_per_page_ns : int;
}

(* Calibration anchors (Appendix A, Table 3 of the paper):
   - C PolyBench process: ~1 thread, ~0.98K pages, ~20 restored pages,
     restore 0.5–1.3 ms.
   - Python: ~2 threads, 3–8K pages, 0.2–3K restored, restore 1.7–12 ms.
   - Node.js: ~6 threads, 157–208K pages, restore 12.6–162 ms; scans of the
     huge address space dominate.
   - SD re-arm faults cost well under a microsecond; CoW faults several
     times more (fault + 4 KiB copy); fork also pays first-touch faults on
     reads, making it slower than GH at equal dirty rates. *)
let default =
  {
    tracking = Soft_dirty;
    uffd_fault_ns = 3_600;
    page_write_ns = 18;
    page_read_ns = 9;
    sd_fault_ns = 480;
    cow_fault_ns = 2_900;
    first_touch_fault_ns = 260;
    demand_zero_fault_ns = 350;
    maps_read_per_vma_ns = 2_400;
    pagemap_scan_per_page_ns = 58;
    clear_refs_per_page_ns = 15;
    ptrace_attach_ns = 26_000;
    ptrace_interrupt_per_thread_ns = 150_000;
    ptrace_getregs_per_thread_ns = 9_000;
    ptrace_setregs_per_thread_ns = 9_500;
    ptrace_detach_per_thread_ns = 21_000;
    syscall_inject_ns = 60_000;
    snapshot_copy_per_page_ns = 840;
    restore_copy_per_page_ns = 2_200;
    restore_copy_run_setup_ns = 6_000;
    coalesce_runs = true;
    stack_zero_per_page_ns = 130;
    layout_diff_per_vma_ns = 750;
    mmap_ns = 2_100;
    munmap_ns = 1_900;
    brk_ns = 900;
    mprotect_ns = 1_500;
    madvise_ns = 1_300;
    fork_base_ns = 95_000;
    fork_per_vma_ns = 1_400;
    fork_per_present_page_ns = 95;
    faasm_reset_base_ns = 210_000;
    faasm_reset_per_dirty_page_ns = 3_000;
    hash_per_page_ns = 150;
  }

let no_coalescing = { default with coalesce_runs = false }
let uffd_tracking = { default with tracking = Uffd }
let kernel_list_tracking = { default with tracking = Kernel_list }
