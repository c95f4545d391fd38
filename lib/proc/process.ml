module Account = Gh_sim.Account
module Cost = Gh_kernel.Cost
module As = Gh_mem.Address_space

type t = {
  pid : int;
  mem : As.t;
  mutable threads : Thread.t list;
  mutable next_tid : int;
  mutable fault : Gh_sim.Fault.t;
  mutable traced : bool;
}

(* Atomic: processes are created concurrently when experiment cells run
   on Domain_pool workers. The pid value never feeds costs, RNG streams
   or report output — it only has to be unique — so the allocation order
   changing under parallelism cannot change any figure. *)
let next_pid = Atomic.make 1000

let fresh_pid () = 1 + Atomic.fetch_and_add next_pid 1

let create ?(fault = Gh_sim.Fault.none) ~mem ~n_threads () =
  if n_threads < 1 then invalid_arg "Process.create: need at least one thread";
  let pid = fresh_pid () in
  let threads = List.init n_threads (fun i -> Thread.create ~tid:(pid + i)) in
  { pid; mem; threads; next_tid = pid + n_threads; fault; traced = false }

let set_fault t fault = t.fault <- fault

let cost t = As.cost t.mem
let n_threads t = List.length t.threads

let main_thread t =
  match t.threads with
  | th :: _ -> th
  | [] -> invalid_arg "Process.main_thread: no threads"

let find_thread t tid = List.find_opt (fun th -> th.Thread.tid = tid) t.threads

let spawn_thread t acct =
  let c = cost t in
  Account.charge acct (c.Cost.mmap_ns + c.Cost.brk_ns);
  let th = Thread.create ~tid:t.next_tid in
  t.next_tid <- t.next_tid + 1;
  t.threads <- t.threads @ [ th ];
  th

let exit_thread t th =
  if List.length t.threads <= 1 then invalid_arg "Process.exit_thread: last thread";
  t.threads <- List.filter (fun x -> x != th) t.threads

let sys_mmap t acct ~n_pages ~prot kind =
  Account.charge acct (cost t).Cost.mmap_ns;
  As.map t.mem ~n_pages ~prot kind

let sys_munmap t acct vma =
  Account.charge acct (cost t).Cost.munmap_ns;
  As.unmap t.mem vma

let sys_brk t acct addr =
  Account.charge acct (cost t).Cost.brk_ns;
  As.set_brk t.mem addr

let sys_mprotect t acct vma prot =
  Account.charge acct (cost t).Cost.mprotect_ns;
  As.mprotect t.mem vma prot

let sys_madvise_dontneed t acct vma ~pos ~len =
  Account.charge acct (cost t).Cost.madvise_ns;
  As.madvise_dontneed t.mem vma ~pos ~len

let fork t acct =
  let c = cost t in
  let present = As.present_pages t.mem in
  Account.charge acct
    (c.Cost.fork_base_ns
    + (c.Cost.fork_per_vma_ns * As.vma_count t.mem)
    + (c.Cost.fork_per_present_page_ns * present));
  let child_mem = As.clone_cow t.mem in
  let caller = main_thread t in
  let child = create ~fault:t.fault ~mem:child_mem ~n_threads:1 () in
  Registers.assign (main_thread child).Thread.regs ~from:caller.Thread.regs;
  child

let recycle t = As.recycle t.mem
