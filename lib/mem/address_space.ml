module Account = Gh_sim.Account
module Cost = Gh_kernel.Cost

(* VMAs live in a sorted array (ascending start address) with a by-id
   hash table and a one-entry MRU cursor on the side. Page accesses are
   overwhelmingly sequential within one region, so the MRU hit rate is
   near 1; the binary search only runs on region switches. Layout
   changes (map/unmap) rebuild the array — they are orders of magnitude
   rarer than lookups. *)
type t = {
  cost : Cost.t;
  mutable arr : Vma.t array;  (* ascending by start_addr, non-overlapping *)
  by_id : (int, Vma.t) Hashtbl.t;
  mutable mru : Vma.t option;
  mutable brk_addr : int;
  heap_base : int;
  heap_id : int;
  stack_id : int;
  mutable next_vma_id : int;
  mutable mmap_cursor : int;
  mutable sd_on : bool;
  mutable cow_hook : (Vma.t -> int -> unit) option;
      (* Called just before a CoW-armed page's current contents are lost —
         overwritten by a write, zapped by madvise, or dropped with its
         mapping. Incremental snapshots use it to salvage original data. *)
}

let page_size = Vma.page_size

(* Conventional bases, loosely after x86-64 Linux. *)
let text_base = 0x0000_0040_0000
let heap_base_default = 0x0000_0100_0000
let mmap_base = 0x7f00_0000_0000
let stack_base = 0x7ffd_0000_0000

let fresh_id t =
  let id = t.next_vma_id in
  t.next_vma_id <- id + 1;
  id

(* First index whose VMA starts at or above [key]. *)
let lower_bound arr key =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if (Array.unsafe_get arr mid).Vma.start_addr < key then lo := mid + 1
    else hi := mid
  done;
  !lo

let insert_vma t vma =
  let n = Array.length t.arr in
  let idx = lower_bound t.arr vma.Vma.start_addr in
  let arr = Array.make (n + 1) vma in
  Array.blit t.arr 0 arr 0 idx;
  Array.blit t.arr idx arr (idx + 1) (n - idx);
  t.arr <- arr;
  Hashtbl.replace t.by_id vma.Vma.id vma

let remove_vma t idx =
  let vma = t.arr.(idx) in
  t.arr <- Array.init (Array.length t.arr - 1) (fun i ->
      if i < idx then t.arr.(i) else t.arr.(i + 1));
  Hashtbl.remove t.by_id vma.Vma.id;
  (match t.mru with Some v when v == vma -> t.mru <- None | _ -> ())

(* Locate [vma] by pointer identity: binary-search to its start, then walk
   the (tiny) run of equal starts. Replaces the old List.memq checks. *)
let index_of t (vma : Vma.t) =
  let n = Array.length t.arr in
  let rec scan i =
    if i >= n then -1
    else
      let v = Array.unsafe_get t.arr i in
      if v.Vma.start_addr > vma.Vma.start_addr then -1
      else if v == vma then i
      else scan (i + 1)
  in
  scan (lower_bound t.arr vma.Vma.start_addr)

let create ?(text_pages = 512) ?(data_pages = 128) ?(heap_pages = 256)
    ?(stack_pages = 32) ~cost () =
  (* The brk heap sits above the data segment (with a guard gap), like the
     loader would place it; the fixed default only holds for small
     binaries. *)
  let data_end = text_base + ((text_pages + data_pages) * page_size) in
  let heap_base = max heap_base_default (data_end + (64 * page_size)) in
  let t =
    {
      cost;
      arr = [||];
      by_id = Hashtbl.create 16;
      mru = None;
      brk_addr = heap_base + (heap_pages * page_size);
      heap_base;
      heap_id = 1;
      stack_id = 3;
      next_vma_id = 4;
      mmap_cursor = mmap_base;
      sd_on = false;
      cow_hook = None;
    }
  in
  let text = Vma.create ~id:0 ~start_addr:text_base ~n_pages:text_pages ~prot:Prot.rx Vma.Text in
  let heap =
    Vma.create ~id:t.heap_id ~start_addr:heap_base ~n_pages:heap_pages ~prot:Prot.rw
      Vma.Heap
  in
  let data =
    Vma.create ~id:2
      ~start_addr:(text_base + (text_pages * page_size))
      ~n_pages:data_pages ~prot:Prot.rw Vma.Data
  in
  let stack =
    Vma.create ~id:t.stack_id ~start_addr:stack_base ~n_pages:stack_pages ~prot:Prot.rw Vma.Stack
  in
  (* The loader already touched text and data. *)
  Bitmap.fill text.Vma.present true;
  Bitmap.fill data.Vma.present true;
  List.iter (insert_vma t) [ text; heap; data; stack ];
  t

let cost t = t.cost
let vmas t = Array.to_list t.arr
let iter_vmas t f = Array.iter f t.arr
let vma_count t = Array.length t.arr
let brk t = t.brk_addr

let find_vma_by_id t id = Hashtbl.find_opt t.by_id id

(* Zero-length VMAs occupy no address range but do occupy array slots
   (and can share a start with a live VMA), so the predecessor walk has
   to step over them before it can conclude "unmapped". *)
let find_vma t addr =
  match t.mru with
  | Some v when Vma.contains v addr -> Some v
  | _ ->
      let rec back j =
        if j < 0 then None
        else
          let v = Array.unsafe_get t.arr j in
          if Vma.contains v addr then begin
            t.mru <- Some v;
            Some v
          end
          else if v.Vma.n_pages = 0 then back (j - 1)
          else None
      in
      back (lower_bound t.arr (addr + 1) - 1)

let heap t =
  match find_vma_by_id t t.heap_id with
  | Some v -> v
  | None -> invalid_arg "Address_space.heap: heap was unmapped"

let stack t =
  match find_vma_by_id t t.stack_id with
  | Some v -> v
  | None -> invalid_arg "Address_space.stack: stack was unmapped"

(* Fault accounting shared by the single-page and bulk accessors. The
   counters let bulk ranges charge once instead of per page. *)
type fault_counts = {
  mutable first_touch : int;
  mutable demand_zero : int;
  mutable cow : int;
  mutable track : int;  (* SD re-arm or Uffd round trip *)
}

let no_faults () = { first_touch = 0; demand_zero = 0; cow = 0; track = 0 }

let set_cow_hook t hook = t.cow_hook <- hook

let fire_cow_hook t vma i =
  match t.cow_hook with Some hook -> hook vma i | None -> ()

(* Salvage every still-armed page of a range whose contents are about to
   disappear (munmap, madvise, brk shrink). *)
let salvage_range t (vma : Vma.t) ~pos ~len =
  if t.cow_hook <> None then begin
    let len = min len (vma.Vma.n_pages - pos) in
    if len > 0 then
      Bitmap.iter_set_range vma.Vma.cow_pending ~pos ~len (fun i ->
          fire_cow_hook t vma i;
          Bitmap.set vma.Vma.cow_pending i false)
  end

(* With huge-page-backed regions one PTE fault covers [gran] pages. *)
let per_block gran n = if gran <= 1 then n else (n + gran - 1) / gran

(* The time one access of [reads] + [writes] pages that raised [fc]
   costs: the unit every accessor charges, alone or summed over a
   stretch of ranges. *)
let faults_ns c fc ~gran ~reads ~writes =
  let track_ns =
    match c.Cost.tracking with
    | Cost.Soft_dirty | Cost.Kernel_list -> c.Cost.sd_fault_ns
    | Cost.Uffd -> c.Cost.uffd_fault_ns
  in
  (fc.first_touch * c.Cost.first_touch_fault_ns)
  + (per_block gran fc.demand_zero * c.Cost.demand_zero_fault_ns)
  + (fc.cow * c.Cost.cow_fault_ns)
  + (per_block gran fc.track * track_ns)
  + (reads * c.Cost.page_read_ns)
  + (writes * c.Cost.page_write_ns)

let charge_faults t acct fc ~gran ~reads ~writes =
  Account.charge acct (faults_ns t.cost fc ~gran ~reads ~writes)

let write_one t fc (vma : Vma.t) i v =
  if not vma.prot.Prot.write then invalid_arg "Address_space: write to non-writable VMA";
  if Bitmap.get vma.untouched i then begin
    fc.first_touch <- fc.first_touch + 1;
    Bitmap.set vma.untouched i false
  end;
  if not (Bitmap.get vma.present i) then begin
    fc.demand_zero <- fc.demand_zero + 1;
    Bitmap.set vma.present i true;
    (* A freshly faulted-in page is born dirty: no separate re-arm fault. *)
    Bitmap.set vma.soft_dirty i true
  end
  else begin
    if Bitmap.get vma.cow_pending i then begin
      fc.cow <- fc.cow + 1;
      fire_cow_hook t vma i;
      Bitmap.set vma.cow_pending i false
    end;
    if t.sd_on && not (Bitmap.get vma.soft_dirty i) then fc.track <- fc.track + 1;
    Bitmap.set vma.soft_dirty i true
  end;
  vma.data.(i) <- v

let read_one t fc (vma : Vma.t) i =
  ignore t;
  if not vma.prot.Prot.read then invalid_arg "Address_space: read from non-readable VMA";
  if Bitmap.get vma.untouched i then begin
    fc.first_touch <- fc.first_touch + 1;
    Bitmap.set vma.untouched i false
  end;
  if not (Bitmap.get vma.present i) then begin
    (* Read fault maps the shared zero page. Like Linux, the freshly
       created PTE is born soft-dirty — this is what lets Groundhog notice
       pages whose contents were zapped (madvise) and then merely read. *)
    fc.demand_zero <- fc.demand_zero + 1;
    Bitmap.set vma.present i true;
    Bitmap.set vma.soft_dirty i true
  end;
  vma.data.(i)

let check_page_bounds (vma : Vma.t) i =
  if i < 0 || i >= vma.n_pages then invalid_arg "Address_space: page index out of bounds"

let write_page t acct vma i v =
  check_page_bounds vma i;
  let fc = no_faults () in
  write_one t fc vma i v;
  charge_faults t acct fc ~gran:vma.Vma.fault_gran ~reads:0 ~writes:1

let read_page t acct vma i =
  check_page_bounds vma i;
  let fc = no_faults () in
  let v = read_one t fc vma i in
  charge_faults t acct fc ~gran:vma.Vma.fault_gran ~reads:1 ~writes:0;
  v

let write_addr t acct addr v =
  match find_vma t addr with
  | None -> invalid_arg "Address_space.write_addr: segfault (unmapped address)"
  | Some vma -> write_page t acct vma (Vma.page_index vma addr) v

let read_addr t acct addr =
  match find_vma t addr with
  | None -> invalid_arg "Address_space.read_addr: segfault (unmapped address)"
  | Some vma -> read_page t acct vma (Vma.page_index vma addr)

let check_range (vma : Vma.t) ~pos ~len op =
  if len < 0 || pos < 0 || pos + len > vma.Vma.n_pages then
    invalid_arg ("Address_space." ^ op ^ ": range out of bounds")

(* Bulk page kernels. One iteration per packed 63-page bitmap word:
   fault classes fall out of popcounts over word masks, bitmap updates
   are word ops, data moves are typed stores. The classification
   mirrors [write_one] exactly:
     first-touch : untouched ∧ m            (then untouched &= ¬m)
     demand-zero : ¬present ∧ m             (born dirty, no re-arm)
     CoW         : cow_pending ∧ present ∧ m
     re-arm      : sd_on ∧ present ∧ ¬soft_dirty ∧ m
   Words holding CoW hits while a salvage hook is installed take the
   scalar path so the hook still observes pre-write contents page by
   page, in page order — bit-identical behavior by construction.

   The loops work on the bitmaps' backing arrays and carry the word index
   and bit offset as loop state: this module is compiled [-opaque] in the
   dev profile, so a [Bitmap.word] per word would be a curried call
   through [caml_applyN], and [/ Bitmap.bits_per_word] an [idiv]
   ([Bitmap.word_index] divides once per range instead). Only the
   one-argument [Bitmap.popcount] is called per word, and only on nonzero
   masks.

   The kernels take a list of ranges on one VMA — (pos, len) pairs,
   range [r] at [ranges.(2r)], [ranges.(2r+1)] — and apply ranges
   [first, stop) in order, each exactly as a [dirty_range]/[read_range]
   call of its own would: the same checks raising the same exceptions,
   the same fault counts with their own [fault_gran] rounding (where
   ranges overlap, the overlap's faults belong to the earlier range), a
   charge of the range's length. What no range can change is read once
   per call: the VMA's protection and granularity, its backing arrays
   and their common length (the salvage hook only reads the VMA, so the
   hoisted arrays stay its arrays), the cost constants. Nothing is
   allocated per range, and one [Account.charge] covers the call; if a
   range raises, the ranges before it are charged first. A function's
   compiled page plans ([Function_model]) are the many-range callers;
   [dirty_range]/[read_range] are the one-range case. *)

(* The loops below index unchecked, so the arrays are checked once per
   call: a recycled VMA ([Vma.recycle]) keeps its size but has no data
   and must raise, and no map may be shorter than a range. This is how
   far a range may reach. *)
let backed_pages (vma : Vma.t) =
  (* Typed: [Stdlib.min] would be a polymorphic compare, a C call. *)
  let min (a : int) b = if a < b then a else b in
  min
    (min (Array.length vma.Vma.data) (Bitmap.length vma.Vma.present))
    (min
       (min (Bitmap.length vma.Vma.soft_dirty) (Bitmap.length vma.Vma.cow_pending))
       (Bitmap.length vma.Vma.untouched))

let check_ranges ranges ~first ~stop op =
  if first < 0 || first > stop || stop > Array.length ranges / 2 then
    invalid_arg ("Address_space." ^ op ^ ": range index out of bounds")

(* Charge what the applied ranges cost, then let [e] through. *)
let charge_and_reraise acct ns e =
  let bt = Printexc.get_raw_backtrace () in
  Account.charge acct ns;
  Printexc.raise_with_backtrace e bt

let dirty_ranges t acct (vma : Vma.t) ranges ~first ~stop ~value =
  check_ranges ranges ~first ~stop "dirty_ranges";
  let c = t.cost and gran = vma.Vma.fault_gran in
  let writable = vma.Vma.prot.Prot.write and backed = backed_pages vma in
  let present = Bitmap.words vma.Vma.present
  and sd = Bitmap.words vma.Vma.soft_dirty
  and cowp = Bitmap.words vma.Vma.cow_pending
  and unt = Bitmap.words vma.Vma.untouched
  and data = vma.Vma.data in
  let hooked = match t.cow_hook with Some _ -> true | None -> false in
  let sd_on = t.sd_on in
  let bpw = Bitmap.bits_per_word in
  let fc = no_faults () in
  let ns = ref 0 in
  match
    for r = first to stop - 1 do
      let pos = Array.unsafe_get ranges (2 * r)
      and len = Array.unsafe_get ranges ((2 * r) + 1) in
      check_range vma ~pos ~len "dirty_range";
      fc.first_touch <- 0;
      fc.demand_zero <- 0;
      fc.cow <- 0;
      fc.track <- 0;
      if len > 0 then begin
        if not writable then invalid_arg "Address_space: write to non-writable VMA";
        let hi = pos + len in
        if hi > backed then invalid_arg "Address_space: page index out of bounds";
        let w0 = Bitmap.word_index pos in
        let i = ref pos and wi = ref w0 and b = ref (pos - (w0 * bpw)) in
        while !i < hi do
          let room = bpw - !b and left = hi - !i in
          let n = if left < room then left else room in
          let m = if n = bpw then -1 else ((1 lsl n) - 1) lsl !b in
          let w = !wi in
          let pw = Array.unsafe_get present w in
          let cow_hits = Array.unsafe_get cowp w land pw land m in
          if cow_hits <> 0 && hooked then
            for k = !i to !i + n - 1 do
              write_one t fc vma k value
            done
          else begin
            let uw = Array.unsafe_get unt w land m in
            if uw <> 0 then begin
              fc.first_touch <- fc.first_touch + Bitmap.popcount uw;
              Array.unsafe_set unt w (Array.unsafe_get unt w lxor uw)
            end;
            let dz = lnot pw land m in
            if dz <> 0 then fc.demand_zero <- fc.demand_zero + Bitmap.popcount dz;
            if cow_hits <> 0 then begin
              fc.cow <- fc.cow + Bitmap.popcount cow_hits;
              Array.unsafe_set cowp w (Array.unsafe_get cowp w lxor cow_hits)
            end;
            let sw = Array.unsafe_get sd w in
            if sd_on then begin
              let rearm = pw land lnot sw land m in
              if rearm <> 0 then fc.track <- fc.track + Bitmap.popcount rearm
            end;
            Array.unsafe_set present w (pw lor m);
            Array.unsafe_set sd w (sw lor m);
            for k = !i to !i + n - 1 do
              Array.unsafe_set data k value
            done
          end;
          i := !i + n;
          incr wi;
          b := 0
        done
      end;
      ns := !ns + faults_ns c fc ~gran ~reads:0 ~writes:len
    done
  with
  | () -> Account.charge acct !ns
  | exception e -> charge_and_reraise acct !ns e

let read_ranges t acct (vma : Vma.t) ranges ~first ~stop =
  check_ranges ranges ~first ~stop "read_ranges";
  let c = t.cost and gran = vma.Vma.fault_gran in
  let readable = vma.Vma.prot.Prot.read and backed = backed_pages vma in
  let present = Bitmap.words vma.Vma.present
  and sd = Bitmap.words vma.Vma.soft_dirty
  and unt = Bitmap.words vma.Vma.untouched in
  let bpw = Bitmap.bits_per_word in
  let fc = no_faults () in
  let ns = ref 0 in
  match
    for r = first to stop - 1 do
      let pos = Array.unsafe_get ranges (2 * r)
      and len = Array.unsafe_get ranges ((2 * r) + 1) in
      check_range vma ~pos ~len "read_range";
      fc.first_touch <- 0;
      fc.demand_zero <- 0;
      if len > 0 then begin
        if not readable then invalid_arg "Address_space: read from non-readable VMA";
        let hi = pos + len in
        if hi > backed then invalid_arg "Address_space: page index out of bounds";
        let w0 = Bitmap.word_index pos in
        let i = ref pos and wi = ref w0 and b = ref (pos - (w0 * bpw)) in
        while !i < hi do
          let room = bpw - !b and left = hi - !i in
          let n = if left < room then left else room in
          let m = if n = bpw then -1 else ((1 lsl n) - 1) lsl !b in
          let w = !wi in
          let uw = Array.unsafe_get unt w land m in
          if uw <> 0 then begin
            fc.first_touch <- fc.first_touch + Bitmap.popcount uw;
            Array.unsafe_set unt w (Array.unsafe_get unt w lxor uw)
          end;
          (* Only pages faulted in by this read become (born-dirty) present;
             already-present pages stay clean under a read. *)
          let dz = lnot (Array.unsafe_get present w) land m in
          if dz <> 0 then begin
            fc.demand_zero <- fc.demand_zero + Bitmap.popcount dz;
            Array.unsafe_set present w (Array.unsafe_get present w lor dz);
            Array.unsafe_set sd w (Array.unsafe_get sd w lor dz)
          end;
          i := !i + n;
          incr wi;
          b := 0
        done
      end;
      ns := !ns + faults_ns c fc ~gran ~reads:len ~writes:0
    done
  with
  | () -> Account.charge acct !ns
  | exception e -> charge_and_reraise acct !ns e

let dirty_range t acct vma ~pos ~len ~value =
  dirty_ranges t acct vma [| pos; len |] ~first:0 ~stop:1 ~value

let read_range t acct vma ~pos ~len = read_ranges t acct vma [| pos; len |] ~first:0 ~stop:1

(* Retained scalar reference implementations: the differential property
   tests and the mem bench group compare the word kernels against these. *)
module Scalar = struct
  let dirty_range t acct vma ~pos ~len ~value =
    check_range vma ~pos ~len "dirty_range";
    let fc = no_faults () in
    for i = pos to pos + len - 1 do
      write_one t fc vma i value
    done;
    charge_faults t acct fc ~gran:vma.Vma.fault_gran ~reads:0 ~writes:len

  let read_range t acct vma ~pos ~len =
    check_range vma ~pos ~len "read_range";
    let fc = no_faults () in
    for i = pos to pos + len - 1 do
      ignore (read_one t fc vma i)
    done;
    charge_faults t acct fc ~gran:vma.Vma.fault_gran ~reads:len ~writes:0
end

let peek (vma : Vma.t) i =
  check_page_bounds vma i;
  vma.Vma.data.(i)

let poke (vma : Vma.t) i v =
  check_page_bounds vma i;
  vma.Vma.data.(i) <- v;
  Bitmap.set vma.Vma.present i true;
  Bitmap.set vma.Vma.soft_dirty i true;
  Bitmap.set vma.Vma.cow_pending i false

(* Bulk [poke]: one page copy plus three word-batched range ops. Same
   per-page effect (data set, present + soft-dirty, pending CoW
   cancelled, untouched untouched). *)
let poke_range (vma : Vma.t) ~pos ~len ~src ~src_pos =
  check_range vma ~pos ~len "poke_range";
  if src_pos < 0 || src_pos + len > Array.length src then
    invalid_arg "Address_space.poke_range: source range out of bounds";
  Vma.blit_pages src src_pos vma.Vma.data pos len;
  Bitmap.set_range vma.Vma.present ~pos ~len true;
  Bitmap.set_range vma.Vma.soft_dirty ~pos ~len true;
  Bitmap.set_range vma.Vma.cow_pending ~pos ~len false

let zero_range (vma : Vma.t) ~pos ~len =
  check_range vma ~pos ~len "zero_range";
  Array.fill vma.Vma.data pos len 0;
  Bitmap.set_range vma.Vma.present ~pos ~len true;
  Bitmap.set_range vma.Vma.soft_dirty ~pos ~len true;
  Bitmap.set_range vma.Vma.cow_pending ~pos ~len false

(* Nonzero-length VMAs have monotone end addresses (sorted and
   non-overlapping), so the predecessor walk below can stop at the first
   one that ends at or below [start_addr]; only zero-length entries —
   which pin no range but may share a start with a live VMA — need to be
   stepped over. *)
let overlaps_existing t ~start_addr ~n_pages =
  let stop = start_addr + (n_pages * page_size) in
  let rec back j =
    j >= 0
    &&
    let v = Array.unsafe_get t.arr j in
    if start_addr < Vma.end_addr v then true
    else v.Vma.n_pages = 0 && back (j - 1)
  in
  back (lower_bound t.arr stop - 1)

let map_at t ~start_addr ~n_pages ~prot kind =
  if overlaps_existing t ~start_addr ~n_pages then
    invalid_arg "Address_space.map_at: overlapping mapping";
  let vma = Vma.create ~id:(fresh_id t) ~start_addr ~n_pages ~prot kind in
  insert_vma t vma;
  vma

(* Highest free gap in [mmap_base, stack_base): the fallback allocator
   once the bump cursor runs dry. Scanning top-down and placing at the
   top of the gap keeps reused ranges away from the heap and makes the
   placement independent of unmap order. Zero-length VMAs pin no
   address range and are skipped. *)
let find_free_gap t ~span =
  let rec go j upper =
    if upper - mmap_base < span then None
    else if j < 0 then Some (upper - span)
    else
      let v = Array.unsafe_get t.arr j in
      if v.Vma.n_pages = 0 then go (j - 1) upper
      else if Vma.end_addr v <= mmap_base then Some (upper - span)
      else if v.Vma.start_addr >= upper then go (j - 1) upper
      else if upper - Vma.end_addr v >= span then Some (upper - span)
      else go (j - 1) (min upper v.Vma.start_addr)
  in
  go (Array.length t.arr - 1) stack_base

let map t ~n_pages ~prot kind =
  let span = (n_pages + 16) * page_size in
  let start_addr =
    if t.mmap_cursor + span <= stack_base then begin
      let s = t.mmap_cursor in
      t.mmap_cursor <- s + span;
      s
    end
    else
      (* The bump cursor never reuses unmapped ranges; long-lived spaces
         with mmap/munmap churn would otherwise run off the end of the
         mmap area even though almost all of it is free. *)
      match find_free_gap t ~span with
      | Some s -> s
      | None -> invalid_arg "Address_space.map: out of address space"
  in
  map_at t ~start_addr ~n_pages ~prot kind

let unmap t vma =
  let idx = index_of t vma in
  if idx < 0 then invalid_arg "Address_space.unmap: foreign VMA";
  salvage_range t vma ~pos:0 ~len:vma.Vma.n_pages;
  remove_vma t idx

let set_brk t addr =
  if addr < t.heap_base then invalid_arg "Address_space.set_brk: below heap base";
  let n_pages = (addr - t.heap_base + page_size - 1) / page_size in
  let heap_vma = heap t in
  if n_pages < heap_vma.Vma.n_pages then
    salvage_range t heap_vma ~pos:n_pages ~len:(heap_vma.Vma.n_pages - n_pages);
  Vma.resize heap_vma n_pages;
  t.brk_addr <- addr

let mprotect t vma prot =
  if index_of t vma < 0 then invalid_arg "Address_space.mprotect: foreign VMA";
  vma.Vma.prot <- prot

let madvise_dontneed t vma ~pos ~len =
  if index_of t vma < 0 then invalid_arg "Address_space.madvise: foreign VMA";
  if len < 0 || pos < 0 || pos + len > vma.Vma.n_pages then
    invalid_arg "Address_space.madvise_dontneed: range out of bounds";
  salvage_range t vma ~pos ~len;
  Bitmap.set_range vma.Vma.present ~pos ~len false;
  Bitmap.set_range vma.Vma.soft_dirty ~pos ~len false;
  Bitmap.set_range vma.Vma.cow_pending ~pos ~len false;
  Array.fill vma.Vma.data pos len 0

let resize_vma t vma n_pages =
  if index_of t vma < 0 then invalid_arg "Address_space.resize_vma: foreign VMA";
  let stop = vma.Vma.start_addr + (n_pages * page_size) in
  (* Only successors can collide with growth (predecessors overlapping
     [vma]'s start would already overlap it today). *)
  let collision =
    let n = Array.length t.arr in
    let rec scan i =
      i < n
      &&
      let v = Array.unsafe_get t.arr i in
      v.Vma.start_addr < stop
      && ((v != vma && vma.Vma.start_addr < Vma.end_addr v) || scan (i + 1))
    in
    scan (lower_bound t.arr vma.Vma.start_addr)
  in
  if collision then invalid_arg "Address_space.resize_vma: growth collides with a neighbour";
  if n_pages < vma.Vma.n_pages then
    salvage_range t vma ~pos:n_pages ~len:(vma.Vma.n_pages - n_pages);
  Vma.resize vma n_pages;
  if vma.Vma.id = t.heap_id then t.brk_addr <- min t.brk_addr (Vma.end_addr vma)

let sd_enabled t = t.sd_on

let clear_refs t =
  t.sd_on <- true;
  Array.iter (fun v -> Bitmap.fill v.Vma.soft_dirty false) t.arr

(* The child must not inherit the parent's salvage hook: its CoW faults
   belong to fork semantics, not to the parent's incremental snapshot. *)
let clone_cow t =
  let child =
    {
      t with
      arr = Array.map Vma.clone_cow t.arr;
      by_id = Hashtbl.create (Array.length t.arr * 2);
      mru = None;
      cow_hook = None;
    }
  in
  Array.iter (fun (v : Vma.t) -> Hashtbl.replace child.by_id v.Vma.id v) child.arr;
  child

(* End of life for a discarded clone: recycle every VMA's page buffer
   into this domain's pool. The space must never be touched again. *)
let recycle t =
  Array.iter Vma.recycle t.arr;
  t.mru <- None

let arm_cow_all t =
  Array.iter (fun (v : Vma.t) -> v.Vma.cow_pending <- Bitmap.copy v.Vma.present) t.arr

let total_pages t = Array.fold_left (fun acc v -> acc + v.Vma.n_pages) 0 t.arr
let present_pages t = Array.fold_left (fun acc v -> acc + Bitmap.count v.Vma.present) 0 t.arr
let dirty_pages t = Array.fold_left (fun acc v -> acc + Bitmap.count v.Vma.soft_dirty) 0 t.arr
