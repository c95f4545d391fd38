module Account = Gh_sim.Account
module Fault = Gh_sim.Fault
module Cost = Gh_kernel.Cost
module As = Gh_mem.Address_space
module Vma = Gh_mem.Vma
module Bitmap = Gh_mem.Bitmap
module Process = Gh_proc.Process
module Ptrace = Gh_proc.Ptrace
module Procfs = Gh_proc.Procfs

type region = {
  start_addr : int;
  n_pages : int;
  prot : Gh_mem.Prot.t;
  kind : Vma.kind;
  data : int array;
  present : Bitmap.t;
  zeros : Bitmap.t;
  hashes : int array;
  hstale : Bitmap.t;
}

(* -- Content hashing ----------------------------------------------------
   One hash per 63-page block (the bitmap word granularity, so the hash
   pass shares the zero-elision scan's word loop). The block's words are
   dealt round-robin to four independent chains — word [pos + 4q + k] to
   lane [k], the last [len mod 4] words to lane 0 — so four multiplies
   are in flight at once instead of one per word on a single chain. Each
   lane has its own seed (lane 0's takes the length), and the lanes are
   folded into one hash in lane order.

   The per-word update is injective in the word for a fixed running
   state, and injective in the state for a fixed word, so a single-word
   difference changes its own lane's final state and no other; the fold
   is the same update, injective in each lane when the others are fixed.
   So any single-word difference within a block is *guaranteed* to change
   the block hash (multi-word collisions are ~2^-63). That makes bitflip
   detection a theorem, not a probability. *)

let block_pages = Bitmap.bits_per_word

let hash_mix h x =
  let h = h lxor x in
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let hash_words data ~pos ~len =
  let h0 = ref (hash_mix 0x27D4EB2F165667C5 len)
  and h1 = ref 0x165667B19E3779F9
  and h2 = ref 0x3C6EF372FE94F82B
  and h3 = ref 0x0A54FF53A5F1D36F in
  let quads = pos + (len land lnot 3) in
  let i = ref pos in
  while !i < quads do
    let j = !i in
    h0 := hash_mix !h0 (Array.unsafe_get data j);
    h1 := hash_mix !h1 (Array.unsafe_get data (j + 1));
    h2 := hash_mix !h2 (Array.unsafe_get data (j + 2));
    h3 := hash_mix !h3 (Array.unsafe_get data (j + 3));
    i := j + 4
  done;
  for j = quads to pos + len - 1 do
    h0 := hash_mix !h0 (Array.unsafe_get data j)
  done;
  hash_mix (hash_mix (hash_mix !h0 !h1) !h2) !h3

(* All-zero blocks get their hash by construction — no data read. The
   hashes of all 64 lengths are precomputed, so a region's short last
   block costs no more than a full one. *)
let zero_hashes =
  let zeros = Array.make block_pages 0 in
  Array.init (block_pages + 1) (fun len -> hash_words zeros ~pos:0 ~len)

let zero_block_hash len = zero_hashes.(len)

let region_blocks (r : region) = (r.n_pages + block_pages - 1) / block_pages

let block_len (r : region) b =
  let rest = r.n_pages - (b * block_pages) in
  if rest < block_pages then rest else block_pages

(* The reference hash for block [b]. For eager captures this is the hash
   taken from the *source* during the copy; for incremental shells the
   salvage hook marks salvaged blocks stale, and the first audit re-seals
   them from the (legitimately updated) stored content. *)
let block_hash (r : region) b =
  if Bitmap.get r.hstale b then begin
    r.hashes.(b) <- hash_words r.data ~pos:(b * block_pages) ~len:(block_len r b);
    Bitmap.set r.hstale b false
  end;
  r.hashes.(b)

(* Does the stored content still match the reference hash? Stale blocks
   seal (their content is the reference) and thus always pass. *)
let verify_block (r : region) b =
  let stored = block_hash r b in
  stored = hash_words r.data ~pos:(b * block_pages) ~len:(block_len r b)

type t = {
  brk : int;
  regs : (int * Gh_proc.Registers.t) list;
  regions : region list;
  by_start : (int, region) Hashtbl.t;
  present_pages : int;
  capture_ns : Gh_sim.Time_ns.t;
}

(* Duplicate start addresses are a hard error: the old first-wins guard
   silently shadowed the second region, so its pages could never be found
   (nor restored) through the index — exactly the kind of quiet data loss
   the integrity layer exists to rule out. *)
let make ~brk ~regs ~regions ~present_pages ~capture_ns =
  let by_start = Hashtbl.create (2 * List.length regions) in
  List.iter
    (fun r ->
      if Hashtbl.mem by_start r.start_addr then
        invalid_arg
          (Printf.sprintf "Snapshot.make: duplicate region start address 0x%x" r.start_addr);
      Hashtbl.add by_start r.start_addr r)
    regions;
  { brk; regs; regions; by_start; present_pages; capture_ns }

(* Early exit out of the iteration callbacks below; caught at the
   [capture] boundary, never escapes this module. *)
exception Stop of Fault.site

let ok_or_stop = function Ok v -> v | Error site -> raise (Stop site)

let copy_region acct fault cost (v : Vma.t) =
  let present = Bitmap.copy v.Vma.present in
  let n_present = Bitmap.count present in
  Account.charge acct (n_present * cost.Cost.snapshot_copy_per_page_ns);
  if Fault.fire fault Fault.Snapshot_copy then raise (Stop Fault.Snapshot_copy);
  (* Zero-elided copy: scan the source per 63-page bitmap block, record
     which pages are zero, and skip the blit for all-zero blocks — the
     destination is already zeroed. Stacks and barely-touched heaps are
     mostly zero, so most blocks move no data. The [zeros] map is what
     lets the restore engine split Zero/Copy runs without re-scanning
     page contents on every restore. *)
  let n = v.Vma.n_pages in
  let src = v.Vma.data in
  if Array.length src < n then invalid_arg "Snapshot.capture: region has no page data";
  let data = Array.make n 0 in
  let zeros = Bitmap.create n in
  let zw = Bitmap.words zeros in
  let n_blocks = (n + block_pages - 1) / block_pages in
  let hashes = Array.make n_blocks 0 in
  let i = ref 0 in
  for blk = 0 to n_blocks - 1 do
    let rest = n - !i in
    let lim = if rest < block_pages then rest else block_pages in
    let w = ref 0 in
    for b = 0 to lim - 1 do
      if Array.unsafe_get src (!i + b) = 0 then w := !w lor (1 lsl b)
    done;
    Array.unsafe_set zw blk !w;
    (* The block hash is taken from the *source* while it is hot in cache;
       all-zero blocks get theirs by construction, so the hash pass is
       elided exactly where the copy is. Hashing before the store also
       means a corrupted buffer (below) never forges its own hash. *)
    if !w <> (if lim = block_pages then -1 else (1 lsl lim) - 1) then begin
      Vma.blit_pages src !i data !i lim;
      hashes.(blk) <- hash_words src ~pos:!i ~len:lim
    end
    else hashes.(blk) <- zero_block_hash lim;
    i := !i + lim
  done;
  (* Silent corruption sites. Both fire *after* the hash pass — the hashes
     reflect the true source, so the damage below is detectable. One
     occurrence per region copied. *)
  if Fault.fire fault Fault.Snapshot_bitflip && n > 0 then begin
    (* A stray bit flips in the manager's buffer: one stored word changes,
       the zeros map goes quietly stale with it (real corruption updates
       no metadata). *)
    let page = Fault.draw fault Fault.Snapshot_bitflip ~bound:n in
    let bit = Fault.draw fault Fault.Snapshot_bitflip ~bound:62 in
    data.(page) <- data.(page) lxor (1 lsl bit)
  end;
  if Fault.fire fault Fault.Snapshot_torn && n > 1 then begin
    (* The capture is interrupted mid-region but reported complete: pages
       past the tear keep the buffer's pre-copy contents (zeros). The
       zeros map describes what is actually stored, so a restore would
       faithfully write the torn — wrong — content back. *)
    let cut = 1 + Fault.draw fault Fault.Snapshot_torn ~bound:(n - 1) in
    Array.fill data cut (n - cut) 0;
    Bitmap.set_range zeros ~pos:cut ~len:(n - cut) true
  end;
  {
    start_addr = v.Vma.start_addr;
    n_pages = n;
    prot = v.Vma.prot;
    kind = v.Vma.kind;
    data;
    present;
    zeros;
    hashes;
    hstale = Bitmap.create n_blocks;
  }

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
        (* Walking /proc/pid/maps tells us what to copy. *)
        let _maps = ok_or_stop (Procfs.read_maps acct p) in
        let regions =
          List.map (copy_region acct p.Process.fault cost) (As.vmas p.Process.mem)
        in
        let brk = As.brk p.Process.mem in
        (* Arm tracking: from here on, modified pages are observable. *)
        ok_or_stop (Procfs.clear_refs acct p);
        Ptrace.detach session acct;
        let present_pages =
          List.fold_left (fun n r -> n + Bitmap.count r.present) 0 regions
        in
        Ok (make ~brk ~regs ~regions ~present_pages ~capture_ns:(Account.since acct start))
      with Stop site ->
        (* Fail closed: resume the process and report; the partial copy is
           discarded, the caller must not treat the process as clean. *)
        Ptrace.detach session acct;
        Error site)

let capture_exn acct p =
  match capture acct p with
  | Ok t -> t
  | Error site -> failwith ("Snapshot.capture: fault at " ^ Fault.site_name site)

let find_region t ~start_addr = Hashtbl.find_opt t.by_start start_addr

let memory_words t = List.fold_left (fun n r -> n + Array.length r.data) 0 t.regions

(* -- Self-scrubbing -----------------------------------------------------
   Re-hash stored blocks and compare against the reference hashes taken at
   capture. Detects buffer corruption (bitflips, torn captures) before a
   restore ever serves it. Blocks are addressed by a flat cursor across
   regions so callers can walk the snapshot in bounded slices. *)

type corruption = { region_addr : int; block : int; what : string }

let pp_corruption ppf c =
  Format.fprintf ppf "%s at region %x block %d" c.what c.region_addr c.block

let total_blocks t = List.fold_left (fun n r -> n + region_blocks r) 0 t.regions

type scrub_result = {
  checked_blocks : int;
  checked_pages : int;
  next_cursor : int;  (** 0 once the pass reached the end of the snapshot. *)
  corrupt : corruption option;
}

let scrub t ~cursor ~blocks =
  let cursor = max 0 cursor in
  let checked = ref 0 and pages = ref 0 in
  let corrupt = ref None in
  let base = ref 0 in
  let hit_budget = ref false in
  (try
     List.iter
       (fun r ->
         let nb = region_blocks r in
         for b = max 0 (cursor - !base) to nb - 1 do
           if !checked >= blocks then begin
             hit_budget := true;
             raise Exit
           end;
           if not (verify_block r b) then begin
             corrupt :=
               Some
                 { region_addr = r.start_addr; block = b; what = "stored block hash mismatch" };
             raise Exit
           end;
           incr checked;
           pages := !pages + block_len r b
         done;
         base := !base + nb)
       t.regions
   with Exit -> ());
  let next_cursor =
    if !corrupt = None && !hit_budget then cursor + !checked else 0
  in
  {
    checked_blocks = !checked;
    checked_pages = !pages;
    next_cursor;
    corrupt = !corrupt;
  }

let self_check t =
  let r = scrub t ~cursor:0 ~blocks:max_int in
  r.corrupt
