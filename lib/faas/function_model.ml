module Account = Gh_sim.Account
module Fault = Gh_sim.Fault
module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module As = Gh_mem.Address_space
module Vma = Gh_mem.Vma
module Bitmap = Gh_mem.Bitmap
module Process = Gh_proc.Process
module Registers = Gh_proc.Registers
module Prot = Gh_mem.Prot

type spec = {
  name : string;
  lang : Runtime.lang;
  exec_ns : Time_ns.t;
  exec_jitter : float;
  mapped_pages : int;
  dirtied_pages : int;
  read_pages : int;
  input_kb : int;
  output_kb : int;
  memleak_pages : int;
  leak_slowdown_ns : int;
  buggy_residue_leak : bool;
  gc_extra_dirty : int;
  gc_exec_penalty : float;
  wasm_factor : float option;
  fault_gran : int;
  scattered_writes : bool;
  crash_rate : float;
  hang_rate : float;
}

let default_spec =
  {
    name = "hello";
    lang = Runtime.C;
    exec_ns = Time_ns.of_ms 1.0;
    exec_jitter = 0.02;
    mapped_pages = 1_000;
    dirtied_pages = 20;
    read_pages = 100;
    input_kb = 2;
    output_kb = 1;
    memleak_pages = 0;
    leak_slowdown_ns = 0;
    buggy_residue_leak = false;
    gc_extra_dirty = 0;
    gc_exec_penalty = 0.0;
    wasm_factor = Some 1.0;
    fault_gran = 1;
    scattered_writes = false;
    crash_rate = 0.0;
    hang_rate = 0.0;
  }

type response = {
  value : int;
  residue : int list;
  output_kb : int;
  crashed : bool;
  hung : bool;
}

(* A plan is a set of (vma, chunk position, chunk length) ranges covering a
   page quota, spread evenly over the writable pool so that dirty-page
   density translates into run lengths the way it does for real heaps. *)
type chunk = { vma : Vma.t; pos : int; len : int }

(* A plan compiled for the range kernels ([As.dirty_ranges] /
   [As.read_ranges]): each stretch of consecutive chunks on one VMA as
   one array of (pos, len) pairs, so a request applies a stretch with one
   kernel call instead of a call, a closure and a charge per chunk.
   [first] is the plan index of the group's first chunk (the nonce rule
   counts plan indices) and [reach] the furthest page its chunks end at. *)
type group = { gvma : Vma.t; first : int; ranges : int array; reach : int }

type instance = {
  spec : spec;
  rt : Runtime.t;
  process : Process.t;
  pool : Vma.t array;  (* heap + anonymous arenas, the writable pages *)
  write_plan : group array;
  read_plan : group array;
  prot_region : Vma.t;  (* flipped read-only by churn, flipped back by restore *)
  gc_region : Vma.t option;  (* where Node's GC re-dirtying lands *)
  mutable clean_brk : int;
  mutable highwater_brk : int;
  mutable persistent_map_ids : int list;  (* anon maps left behind by the last invocation *)
  mutable invocations : int;
}

(* Spread [quota] pages over the pool in chunks of [chunk_len], evenly. If
   the quota approaches the pool size the chunks merge into long runs —
   exactly the density-to-coalescing relation of Fig. 3 (left). *)
let spread_plan pool ~quota ~chunk_len =
  let pool_pages = Array.fold_left (fun n (v : Vma.t) -> n + v.Vma.n_pages) 0 pool in
  let quota = min quota pool_pages in
  if quota = 0 then [||]
  else begin
    let n_chunks = max 1 ((quota + chunk_len - 1) / chunk_len) in
    let spacing = float_of_int pool_pages /. float_of_int n_chunks in
    let chunks = ref [] in
    let remaining = ref quota in
    (* Walk the pool as one linear span; place chunk k at offset k*spacing. *)
    let place global_pos len =
      (* Translate a global pool offset into (vma, pos) and clip runs that
         cross a VMA boundary. *)
      let rec go i off len =
        if len <= 0 || i >= Array.length pool then ()
        else begin
          let v = pool.(i) in
          if off >= v.Vma.n_pages then go (i + 1) (off - v.Vma.n_pages) len
          else begin
            let here = min len (v.Vma.n_pages - off) in
            chunks := { vma = v; pos = off; len = here } :: !chunks;
            go (i + 1) 0 (len - here)
          end
        end
      in
      go 0 global_pos len
    in
    for k = 0 to n_chunks - 1 do
      if !remaining > 0 then begin
        let len = min chunk_len !remaining in
        (* Deterministic jitter within each slot: at low density chunks stay
           isolated; as density grows, neighbouring chunks increasingly abut
           and merge into longer dirty runs — which is what lets the restore
           engine coalesce copies at high dirty fractions (Fig. 3 left). *)
        let slack = max 1 (int_of_float spacing - len + 1) in
        let jitter = Hashtbl.hash (k * 2654435761) mod slack in
        let pos = int_of_float (float_of_int k *. spacing) + jitter in
        place (min pos (pool_pages - len)) len;
        remaining := !remaining - len
      end
    done;
    Array.of_list (List.rev !chunks)
  end

(* A Bernoulli page-level dirty pattern (used by the §5.2 microbenchmark):
   each pool page is dirtied independently with probability quota/pool, so
   maximal dirty runs follow the run statistics of random patterns — short
   and numerous at low density, long and few near full density. *)
let scattered_plan pool ~quota =
  let pool_pages = Array.fold_left (fun n (v : Vma.t) -> n + v.Vma.n_pages) 0 pool in
  let quota = min quota pool_pages in
  if quota = 0 then [||]
  else begin
    let chunks = ref [] in
    let emit vma pos len = if len > 0 then chunks := { vma; pos; len } :: !chunks in
    let base = ref 0 in
    Array.iter
      (fun (v : Vma.t) ->
        let run_start = ref (-1) in
        for i = 0 to v.Vma.n_pages - 1 do
          let g = !base + i in
          let selected = Hashtbl.hash (g * 2654435761) mod pool_pages < quota in
          if selected && !run_start < 0 then run_start := i
          else if (not selected) && !run_start >= 0 then begin
            emit v !run_start (i - !run_start);
            run_start := -1
          end
        done;
        if !run_start >= 0 then emit v !run_start (v.Vma.n_pages - !run_start);
        base := !base + v.Vma.n_pages)
      pool;
    Array.of_list (List.rev !chunks)
  end

let compile (plan : chunk array) =
  let n = Array.length plan in
  let groups = ref [] and i = ref 0 in
  while !i < n do
    let gvma = plan.(!i).vma in
    let j = ref !i in
    while !j < n && plan.(!j).vma == gvma do
      incr j
    done;
    let ranges = Array.make (2 * (!j - !i)) 0 and reach = ref 0 in
    for k = !i to !j - 1 do
      let { pos; len; _ } = plan.(k) in
      ranges.(2 * (k - !i)) <- pos;
      ranges.((2 * (k - !i)) + 1) <- len;
      reach := max !reach (pos + len)
    done;
    groups := { gvma; first = !i; ranges; reach = !reach } :: !groups;
    i := !j
  done;
  Array.of_list (List.rev !groups)

let build ?(cost = Gh_kernel.Cost.default) spec =
  let rt = Runtime.for_lang spec.lang in
  let fixed = rt.Runtime.text_pages + rt.Runtime.data_pages + rt.Runtime.stack_pages in
  let pool_pages = max 64 (spec.mapped_pages - fixed) in
  (* ~35 % of the pool is brk heap, the rest is split across arenas. *)
  let heap_pages = max 32 (pool_pages * 35 / 100) in
  let arena_total = pool_pages - heap_pages in
  let n_arenas = max 1 rt.Runtime.arena_count in
  let arena_pages = max 8 (arena_total / n_arenas) in
  let mem =
    As.create ~text_pages:rt.Runtime.text_pages ~data_pages:rt.Runtime.data_pages
      ~heap_pages ~stack_pages:rt.Runtime.stack_pages ~cost ()
  in
  let arenas =
    Array.init n_arenas (fun _ -> As.map mem ~n_pages:arena_pages ~prot:Prot.rw Vma.Anon)
  in
  let prot_region = As.map mem ~n_pages:8 ~prot:Prot.rw Vma.Anon in
  let process = Process.create ~mem ~n_threads:rt.Runtime.threads () in
  let pool = Array.append [| As.heap mem |] arenas in
  (* Huge-page-backed pools: one PTE fault covers a block of pages. *)
  Array.iter (fun (v : Vma.t) -> v.Vma.fault_gran <- max 1 spec.fault_gran) pool;
  let chunk_len = max rt.Runtime.dirty_chunk_pages (min 512 spec.fault_gran) in
  let write_plan =
    compile
      (if spec.scattered_writes then scattered_plan pool ~quota:spec.dirtied_pages
       else spread_plan pool ~quota:spec.dirtied_pages ~chunk_len)
  in
  let read_plan = compile (spread_plan pool ~quota:spec.read_pages ~chunk_len:32) in
  let gc_region =
    if spec.gc_extra_dirty > 0 && Array.length arenas > 0 then Some arenas.(0) else None
  in
  let clean_brk = As.brk mem in
  {
    spec;
    rt;
    process;
    pool;
    write_plan;
    read_plan;
    prot_region;
    gc_region;
    clean_brk;
    highwater_brk = clean_brk + (64 * Vma.page_size);
    persistent_map_ids = [];
    invocations = 0;
  }

let proc t = t.process
let spec t = t.spec
let runtime t = t.rt

let mark_clean t =
  t.clean_brk <- As.brk t.process.Process.mem;
  t.highwater_brk <- t.clean_brk

(* Execution context: which process an activation runs in. Normally the
   instance's own process; for fork-based isolation it is a freshly forked
   child, whose VMAs are resolved by id (fork preserves them). *)
type ctx = { proc : Process.t; resolve : Vma.t -> Vma.t }

let self_ctx t = { proc = t.process; resolve = Fun.id }

let child_ctx t child =
  let m = child.Process.mem in
  let table = Hashtbl.create 64 in
  As.iter_vmas m (fun (v : Vma.t) -> Hashtbl.replace table v.Vma.id v);
  let resolve (v : Vma.t) =
    match Hashtbl.find_opt table v.Vma.id with
    | Some v' -> v'
    | None -> invalid_arg (Printf.sprintf "%s: VMA %d missing in child" t.spec.name v.Vma.id)
  in
  { proc = child; resolve }

let cmem ctx = ctx.proc.Process.mem

(* Layout churn: reclaim what the previous invocation left behind (if the
   restore has not already done so), then produce this invocation's layout
   changes — fresh anonymous maps, a protection flip, and a few transient
   map/unmap pairs. Under BASE this reaches a steady state; under Groundhog
   every change is rolled back and recurs each time. *)
let churn t ctx acct rng =
  let m = cmem ctx in
  let churn_ops = t.rt.Runtime.layout_churn in
  if churn_ops > 0 then begin
    (* Trim the brk excursion the previous invocation left behind (glibc
       trims on free); leaky functions never release, so never trim. *)
    if t.spec.memleak_pages = 0 && As.brk m > t.highwater_brk then
      Process.sys_brk ctx.proc acct t.highwater_brk;
    (* Unmap survivors from the previous invocation. *)
    List.iter
      (fun id ->
        match As.find_vma_by_id m id with
        | Some vma -> Process.sys_munmap ctx.proc acct vma
        | None -> ())
      t.persistent_map_ids;
    t.persistent_map_ids <- [];
    (* Persistent anonymous maps (about half the churn budget). *)
    let n_maps = max 1 (churn_ops / 2) in
    for _ = 1 to n_maps do
      let n_pages = 8 + Rng.int rng 24 in
      let vma = Process.sys_mmap ctx.proc acct ~n_pages ~prot:Prot.rw Vma.Anon in
      As.dirty_range m acct vma ~pos:0 ~len:(min 4 n_pages) ~value:1;
      t.persistent_map_ids <- vma.Vma.id :: t.persistent_map_ids
    done;
    (* Protection flip (restored by an mprotect injection under Groundhog). *)
    let prot_region = ctx.resolve t.prot_region in
    if churn_ops >= 4 && prot_region.Vma.prot.Prot.write then
      Process.sys_mprotect ctx.proc acct prot_region Prot.r;
    (* Transient pairs: mapped and unmapped within the invocation. *)
    let transients = max 0 ((churn_ops - n_maps - 2) / 2) in
    for _ = 1 to transients do
      let vma = Process.sys_mmap ctx.proc acct ~n_pages:4 ~prot:Prot.rw Vma.Anon in
      Process.sys_munmap ctx.proc acct vma
    done
  end

(* The invocation ends with the heap grown past the high-water mark (the
   allocator has not trimmed yet); the next invocation — or a Groundhog
   restore — takes it back. *)
let brk_excursion t ctx acct =
  if t.spec.memleak_pages = 0 && t.rt.Runtime.layout_churn >= 2 then
    Process.sys_brk ctx.proc acct (t.highwater_brk + (16 * Vma.page_size))

(* Per-request variance: each request skips a nonce-dependent 1/8 of the
   chunks, so some pages keep the previous request's data (the residue a
   buggy function can leak) without touching pages the warm-up did not
   page in. Chunk [idx] is skipped when [(idx + nonce) mod 8 = 0]; the
   kept chunks between two skipped ones go to the kernel in one call. *)
let dirty_plan t ctx acct ~nonce ~value =
  let m = cmem ctx in
  for gi = 0 to Array.length t.write_plan - 1 do
    let { gvma; first; ranges; _ } = t.write_plan.(gi) in
    let n = Array.length ranges / 2 in
    let j = ref 0 in
    while !j < n do
      (* The next skipped chunk at or after [j]: [(-x) land 7] is how far
         [x = first + j + nonce] lies below the next multiple of 8, for
         either sign of [nonce]. *)
      let skip = !j + (-(first + !j + nonce) land 7) in
      let stop = if skip < n then skip else n in
      if stop > !j then As.dirty_ranges m acct (ctx.resolve gvma) ranges ~first:!j ~stop ~value;
      j := stop + 1
    done
  done

(* Chunk [r] of [ranges], clipped to the pages [vma] still has. *)
let clipped (vma : Vma.t) ranges r =
  let len = ranges.((2 * r) + 1) and left = vma.Vma.n_pages - ranges.(2 * r) in
  if left <= 0 then 0 else if len < left then len else left

(* Read the working set; a buggy function also exfiltrates foreign secrets
   it happens to observe. Reads never change page data, so the residue
   scan can follow a group's reads. Each chunk is clipped to the pages
   its VMA still has; only a group reaching past them needs the clip. *)
let read_working_set t ctx acct ~principal =
  let m = cmem ctx in
  let residue = ref [] in
  let n_residue = ref 0 in
  for gi = 0 to Array.length t.read_plan - 1 do
    let { gvma; ranges; reach; _ } = t.read_plan.(gi) in
    let vma = ctx.resolve gvma in
    let n = Array.length ranges / 2 in
    if reach <= vma.Vma.n_pages then As.read_ranges m acct vma ranges ~first:0 ~stop:n
    else
      for r = 0 to n - 1 do
        As.read_range m acct vma ~pos:ranges.(2 * r) ~len:(clipped vma ranges r)
      done;
    if t.spec.buggy_residue_leak then
      for r = 0 to n - 1 do
        let pos = ranges.(2 * r) in
        for i = pos to pos + clipped vma ranges r - 1 do
          let w = As.peek vma i in
          (* A residual secret: tagged word (nonce in the upper bits, owner
             in the lower 16) of neither the caller nor the dummy run. *)
          if w lsr 16 <> 0 && w land 0xFFFF <> 0 && w land 0xFFFF <> 0xFFFF
             && (not (Principal.owns_word principal w))
             && (not (List.mem w !residue))
             && !n_residue < 16
          then begin
            residue := w :: !residue;
            incr n_residue
          end
        done
      done
  done;
  !residue

let leak_resident_pages t ctx = max 0 ((As.brk (cmem ctx) - t.clean_brk) / Vma.page_size)

let grow_leak t ctx acct ~value =
  if t.spec.memleak_pages > 0 then begin
    let m = cmem ctx in
    let heap = As.heap m in
    let old_pages = heap.Vma.n_pages in
    Process.sys_brk ctx.proc acct (As.brk m + (t.spec.memleak_pages * Vma.page_size));
    let grown = heap.Vma.n_pages - old_pages in
    if grown > 0 then As.dirty_range m acct heap ~pos:old_pages ~len:grown ~value
  end

let compute_charge t acct rng ~post_restore ~leaked_before =
  let s = t.spec in
  let base = float_of_int s.exec_ns in
  let noise = Rng.gaussian rng ~mu:1.0 ~sigma:s.exec_jitter in
  let gc = if post_restore then 1.0 +. s.gc_exec_penalty else 1.0 in
  let leak_ns = leaked_before * s.leak_slowdown_ns in
  let ns = int_of_float (base *. Float.max 0.05 noise *. gc) + leak_ns in
  Account.charge acct (max 0 ns)

let scramble_registers ctx rng =
  List.iter
    (fun th -> Registers.scramble th.Gh_proc.Thread.regs rng)
    ctx.proc.Process.threads

(* A crash mid-request: the process did part of its work (some churn, some
   dirtying, clobbered registers) and then died on a bug — its state is
   arbitrary and must not be trusted. *)
let crash_ctx t ctx acct rng (req : Request.t) =
  let secret = Request.secret req in
  churn t ctx acct rng;
  dirty_plan t ctx acct ~nonce:req.Request.nonce ~value:secret;
  Account.charge acct (t.spec.exec_ns / 2);
  scramble_registers ctx rng;
  t.invocations <- t.invocations + 1;
  { value = 0; residue = []; output_kb = 0; crashed = true; hung = false }

(* A hang: the process did part of its work and then stopped making
   progress (deadlock, infinite loop, lost I/O). No response is ever
   produced — the platform's timeout is the only way out. The charge here
   is only the work done before the hang; the stall itself occupies the
   container until the timeout fires, which the container layer models. *)
let hang_ctx t ctx acct rng (req : Request.t) =
  let secret = Request.secret req in
  churn t ctx acct rng;
  dirty_plan t ctx acct ~nonce:req.Request.nonce ~value:secret;
  Account.charge acct (t.spec.exec_ns / 2);
  scramble_registers ctx rng;
  t.invocations <- t.invocations + 1;
  { value = 0; residue = []; output_kb = 0; crashed = false; hung = true }

let invoke_ctx t ctx acct rng ~post_restore (req : Request.t) =
  (* Draw the spec's own misbehaviour first (guarded, so rate-0 specs draw
     nothing and streams stay bit-identical), then the fault plan's — the
     model rng stream is thus independent of the installed plan. *)
  let spec_hang = t.spec.hang_rate > 0.0 && Rng.float rng 1.0 < t.spec.hang_rate in
  let spec_crash = t.spec.crash_rate > 0.0 && Rng.float rng 1.0 < t.spec.crash_rate in
  let fault = ctx.proc.Process.fault in
  let fault_hang = Fault.fire fault Fault.Fn_hang in
  let fault_crash = Fault.fire fault Fault.Fn_crash in
  if spec_hang || fault_hang then hang_ctx t ctx acct rng req
  else if spec_crash || fault_crash then crash_ctx t ctx acct rng req
  else begin
  let leaked_before = leak_resident_pages t ctx in
  churn t ctx acct rng;
  let secret = Request.secret req in
  dirty_plan t ctx acct ~nonce:req.Request.nonce ~value:secret;
  (match (t.gc_region, post_restore) with
  | Some gc_vma, true when t.spec.gc_extra_dirty > 0 ->
      let gc_vma = ctx.resolve gc_vma in
      let len = min t.spec.gc_extra_dirty gc_vma.Vma.n_pages in
      As.dirty_range (cmem ctx) acct gc_vma ~pos:0 ~len ~value:1
  | _ -> ());
  grow_leak t ctx acct ~value:secret;
  let residue = read_working_set t ctx acct ~principal:req.Request.principal in
  brk_excursion t ctx acct;
  compute_charge t acct rng ~post_restore ~leaked_before;
  scramble_registers ctx rng;
  t.invocations <- t.invocations + 1;
  let value = secret lxor (t.invocations lsl 8) in
  { value; residue; output_kb = t.spec.output_kb; crashed = false; hung = false }
  end

let invoke t acct rng ~post_restore req = invoke_ctx t (self_ctx t) acct rng ~post_restore req

let invoke_on t child acct rng ~post_restore req =
  invoke_ctx t (child_ctx t child) acct rng ~post_restore req

let warmup t acct rng =
  let mark = Account.mark acct in
  let deployer = Principal.make ~id:0xFFFF ~name:"deployer-dummy" in
  let dummy = Request.make ~id:0 ~principal:deployer ~input_kb:t.spec.input_kb () in
  let resp = invoke t acct rng ~post_restore:false dummy in
  ignore resp;
  (* Lazy class loading and interpreter warm-up make the first run slower. *)
  let extra = float_of_int t.spec.exec_ns *. (t.rt.Runtime.warmup_factor -. 1.0) in
  Account.charge acct (int_of_float extra);
  Account.since acct mark

let boot t ~fault rng =
  Process.set_fault t.process fault;
  let acct = Account.create () in
  ignore (warmup t acct rng);
  mark_clean t;
  acct

let residue_oracle t principal =
  let count = ref 0 in
  As.iter_vmas t.process.Process.mem (fun (vma : Vma.t) ->
      Bitmap.iter_set vma.Vma.present (fun i ->
          let w = vma.Vma.data.(i) in
          if w <> 0 && w land 0xFFFF <> 0 && w land 0xFFFF <> 0xFFFF
             && (not (Principal.owns_word principal w))
             && w lsr 16 <> 0
          then incr count));
  !count
