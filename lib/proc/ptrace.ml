module Account = Gh_sim.Account
module Fault = Gh_sim.Fault
module Cost = Gh_kernel.Cost
module As = Gh_mem.Address_space
module Vma = Gh_mem.Vma
module Bitmap = Gh_mem.Bitmap

type session = { proc : Process.t; mutable alive : bool }

exception Already_attached
exception Not_attached

let cost (s : session) = As.cost s.proc.Process.mem

let check s = if not s.alive then raise Not_attached

(* Fault checks go through [Fault.fire], whose first move is a pointer
   compare against [Fault.none] — free when faults are disabled. When a
   fault fires we still charge the operation's cost: the attempt took
   the time even though it failed. *)
let fires (p : Process.t) site = Fault.fire p.Process.fault site

let attach acct (p : Process.t) =
  if p.Process.traced then raise Already_attached;
  let c = As.cost p.Process.mem in
  Account.charge acct
    (c.Cost.ptrace_attach_ns + (Process.n_threads p * c.Cost.ptrace_interrupt_per_thread_ns));
  if fires p Fault.Ptrace_attach then Error Fault.Ptrace_attach
  else begin
    p.Process.traced <- true;
    List.iter (fun th -> th.Thread.state <- Thread.Stopped) p.Process.threads;
    Ok { proc = p; alive = true }
  end

(* Idempotent: the recovery path may detach a session that a failed
   restore already tore down. Never faults — killing must always work. *)
let detach s acct =
  if s.alive then begin
    let c = cost s in
    Account.charge acct (Process.n_threads s.proc * c.Cost.ptrace_detach_per_thread_ns);
    List.iter (fun th -> th.Thread.state <- Thread.Running) s.proc.Process.threads;
    s.proc.Process.traced <- false;
    s.alive <- false
  end

let is_attached (p : Process.t) = p.Process.traced

let getregs s acct th =
  check s;
  Account.charge acct (cost s).Cost.ptrace_getregs_per_thread_ns;
  if fires s.proc Fault.Ptrace_regs then Error Fault.Ptrace_regs
  else Ok (Registers.copy th.Thread.regs)

let setregs s acct th regs =
  check s;
  Account.charge acct (cost s).Cost.ptrace_setregs_per_thread_ns;
  if fires s.proc Fault.Ptrace_regs then Error Fault.Ptrace_regs
  else Ok (Registers.assign th.Thread.regs ~from:regs)

type injected =
  | Mmap_at of { start_addr : int; n_pages : int; prot : Gh_mem.Prot.t; kind : Vma.kind }
  | Munmap of Vma.t
  | Brk of int
  | Mremap of { vma : Vma.t; n_pages : int }
  | Mprotect of Vma.t * Gh_mem.Prot.t
  | Madvise_dontneed of { vma : Vma.t; pos : int; len : int }

let inject_syscall s acct call =
  check s;
  let c = cost s in
  let mem = s.proc.Process.mem in
  Account.charge acct c.Cost.syscall_inject_ns;
  if fires s.proc Fault.Ptrace_inject then Error Fault.Ptrace_inject
  else
    Ok
      (match call with
      | Mmap_at { start_addr; n_pages; prot; kind } ->
          Account.charge acct c.Cost.mmap_ns;
          Some (As.map_at mem ~start_addr ~n_pages ~prot kind)
      | Munmap vma ->
          Account.charge acct c.Cost.munmap_ns;
          As.unmap mem vma;
          None
      | Brk addr ->
          Account.charge acct c.Cost.brk_ns;
          As.set_brk mem addr;
          None
      | Mremap { vma; n_pages } ->
          Account.charge acct (c.Cost.mmap_ns + c.Cost.munmap_ns);
          As.resize_vma mem vma n_pages;
          None
      | Mprotect (vma, prot) ->
          Account.charge acct c.Cost.mprotect_ns;
          As.mprotect mem vma prot;
          None
      | Madvise_dontneed { vma; pos; len } ->
          Account.charge acct c.Cost.madvise_ns;
          As.madvise_dontneed mem vma ~pos ~len;
          None)

(* The charge and fault site of a restore copy, apart from the data
   movement: the restore engine moves page data word by word itself but
   the cost model and the [Ptrace_write] site stay here. *)
let write_runs s acct ~runs ~pages =
  check s;
  let c = cost s in
  let setups = if c.Cost.coalesce_runs then runs else pages in
  Account.charge acct
    ((setups * c.Cost.restore_copy_run_setup_ns) + (pages * c.Cost.restore_copy_per_page_ns));
  if fires s.proc Fault.Ptrace_write then Error Fault.Ptrace_write else Ok ()

let zero_run s acct ~len =
  check s;
  let c = cost s in
  let setups = if c.Cost.coalesce_runs then 1 else len in
  Account.charge acct
    (((setups * c.Cost.restore_copy_run_setup_ns) / 2) + (len * c.Cost.stack_zero_per_page_ns));
  if fires s.proc Fault.Ptrace_write then Error Fault.Ptrace_write else Ok ()

let write_pages s acct vma ~pos ~len ~src ~src_pos =
  check s;
  if len < 0 || pos < 0 || pos + len > vma.Vma.n_pages || src_pos < 0
     || src_pos + len > Array.length src
  then invalid_arg "Ptrace.write_pages: range out of bounds";
  match write_runs s acct ~runs:1 ~pages:len with
  | Error _ as e -> e
  | Ok () ->
      As.poke_range vma ~pos ~len ~src ~src_pos;
      Ok ()

let zero_pages s acct vma ~pos ~len =
  check s;
  if len < 0 || pos < 0 || pos + len > vma.Vma.n_pages then
    invalid_arg "Ptrace.zero_pages: range out of bounds";
  match zero_run s acct ~len with
  | Error _ as e -> e
  | Ok () ->
      As.zero_range vma ~pos ~len;
      Ok ()
