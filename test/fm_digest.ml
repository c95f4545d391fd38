(* End-to-end digests of the function model: for each of [n_specs]
   synthetic specs, run a fixed request sequence and fold, after every
   step, the charged time, the response and the whole address space
   (brk, every VMA's geometry, protection, data over [0, n_pages) and
   its four page maps) into one MD5 per spec.

   The sequence covers the paths a plan can take: requests on the
   instance itself with eager-snapshot restores in between, requests on
   fork children ([invoke_on]), and requests under an incremental
   snapshot's salvage hook followed by its restore, then on a heap
   trimmed below the size its plans were laid out for. The specs are drawn
   from [Synthetic.tiny_profile] with its pathologies (fault_gran 2-64,
   buggy residue, memleak) and, on a fixed share of them, scattered
   writes, GC re-dirtying, crashes and hangs. [test_faas] compares the
   result with [fm_golden.txt]. *)

module As = Gh_mem.Address_space
module Vma = Gh_mem.Vma
module Bitmap = Gh_mem.Bitmap
module Account = Gh_sim.Account
module Rng = Gh_sim.Rng
module Fm = Gh_faas.Function_model
module Process = Gh_proc.Process
module Request = Gh_faas.Request
module Principal = Gh_faas.Principal
module Snapshot = Groundhog_core.Snapshot
module Restore = Groundhog_core.Restore
module Incremental = Groundhog_core.Incremental

let n_specs = 100

let spec k =
  let s =
    Gh_workloads.Synthetic.draw ~profile:Gh_workloads.Synthetic.tiny_profile
      (Rng.create (7919 * (k + 1)))
  in
  {
    s with
    Fm.scattered_writes = k mod 5 = 1;
    gc_extra_dirty = (if k mod 4 = 2 then 1 + (k mod 50) else 0);
    fault_gran = (if k mod 6 = 3 then 2 + (k mod 63) else s.Fm.fault_gran);
    crash_rate = (if k mod 10 = 7 then 0.3 else 0.0);
    hang_rate = (if k mod 10 = 8 then 0.3 else 0.0);
  }

let add_int buf x = Buffer.add_int64_le buf (Int64.of_int x)

let add_space buf mem =
  add_int buf (As.brk mem);
  As.iter_vmas mem (fun (v : Vma.t) ->
      let n = v.Vma.n_pages in
      add_int buf v.Vma.id;
      add_int buf v.Vma.start_addr;
      add_int buf n;
      add_int buf v.Vma.fault_gran;
      Buffer.add_string buf (Gh_mem.Prot.to_string v.Vma.prot);
      for i = 0 to n - 1 do
        add_int buf v.Vma.data.(i)
      done;
      List.iter
        (fun m ->
          for i = 0 to n - 1 do
            Buffer.add_char buf (if Bitmap.get m i then '1' else '0')
          done)
        [ v.Vma.present; v.Vma.soft_dirty; v.Vma.cow_pending; v.Vma.untouched ])

let add_response buf (r : Fm.response) =
  add_int buf r.Fm.value;
  add_int buf (List.length r.Fm.residue);
  List.iter (add_int buf) r.Fm.residue;
  add_int buf r.Fm.output_kb;
  add_int buf r.Fm.service_denials;
  add_int buf (Bool.to_int r.Fm.crashed);
  add_int buf (Bool.to_int r.Fm.hung)

let principals = [| Principal.make ~id:1 ~name:"alice"; Principal.make ~id:2 ~name:"bob" |]

let digest k =
  let buf = Buffer.create (1 lsl 16) in
  let inst = Fm.build (spec k) in
  let p = Fm.proc inst in
  let heap = As.heap p.Process.mem in
  let planned_heap = heap.Vma.n_pages in
  let rng = Rng.create (1000 + k) in
  let warm = Account.create () in
  add_int buf (Fm.warmup inst warm rng);
  add_int buf (Account.total warm);
  add_space buf p.Process.mem;
  Fm.mark_clean inst;
  let request id = Request.make ~id ~principal:principals.(id land 1) () in
  let invoke ?child id ~post_restore =
    let a = Account.create () in
    (match
       match child with
       | None -> Fm.invoke inst a rng ~post_restore (request id)
       | Some c -> Fm.invoke_on inst c a rng ~post_restore (request id)
     with
    | r -> add_response buf r
    | exception e -> Buffer.add_string buf (Printexc.to_string e));
    add_int buf (Account.total a);
    add_space buf (match child with None -> p | Some c -> c).Process.mem
  in
  let restored a =
    add_int buf (Account.total a);
    add_space buf p.Process.mem
  in
  (* On the instance, with an eager restore after every third request;
     ids 1..8 cover every nonce residue of the skip rule. *)
  let snap = Snapshot.capture_exn (Account.create ()) p in
  for id = 1 to 8 do
    invoke id ~post_restore:(id > 4);
    if id mod 3 = 0 then begin
      let a = Account.create () in
      ignore (Restore.run_exn a snap p);
      restored a
    end
  done;
  (* On fork children of the (dirty) instance. *)
  for id = 9 to 10 do
    let child = Process.fork p (Account.create ()) in
    invoke ~child id ~post_restore:false
  done;
  (* Under an incremental snapshot's salvage hook, then its restore. *)
  let inc = Result.get_ok (Incremental.capture (Account.create ()) p) in
  for id = 11 to 13 do
    invoke id ~post_restore:(id = 12)
  done;
  let a = Account.create () in
  (match Groundhog_core.Restore.run a (Incremental.snapshot inc) p with
  | Ok _ -> ()
  | Error site -> failwith ("Fm_digest: restore fault at " ^ Gh_sim.Fault.site_name site));
  restored a;
  invoke 14 ~post_restore:true;
  As.set_cow_hook p.Process.mem None;
  (* A heap trimmed below the size the plans were laid out for: reads
     are clipped to it, and a write past it raises, recorded with the
     charge and the state it leaves behind. *)
  Process.sys_brk p (Account.create ())
    (heap.Vma.start_addr + ((planned_heap - 1 - (k mod 5)) * Vma.page_size));
  for id = 15 to 16 do
    invoke id ~post_restore:false
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let all () = List.init n_specs digest
