let page_size = 4096

type kind = Text | Data | Heap | Stack | Anon | Wasm_linear

type t = {
  id : int;
  mutable start_addr : int;
  mutable n_pages : int;
  mutable prot : Prot.t;
  kind : kind;
  mutable data : int array;
  mutable present : Bitmap.t;
  mutable soft_dirty : Bitmap.t;
  mutable cow_pending : Bitmap.t;
  mutable untouched : Bitmap.t;
  mutable fault_gran : int;
}

let create ~id ~start_addr ~n_pages ~prot kind =
  if start_addr mod page_size <> 0 then invalid_arg "Vma.create: unaligned start";
  if n_pages < 0 then invalid_arg "Vma.create: negative size";
  {
    id;
    start_addr;
    n_pages;
    prot;
    kind;
    data = Gh_sim.Buffer_pool.acquire_zeroed n_pages;
    present = Bitmap.create n_pages;
    soft_dirty = Bitmap.create n_pages;
    cow_pending = Bitmap.create n_pages;
    untouched = Bitmap.create n_pages;
    fault_gran = 1;
  }

let end_addr t = t.start_addr + (t.n_pages * page_size)
let contains t addr = addr >= t.start_addr && addr < end_addr t

let page_index t addr =
  if not (contains t addr) then invalid_arg "Vma.page_index: address outside region";
  (addr - t.start_addr) / page_size

(* Typed as [int array], so the stores need no write barrier (see the
   interface); forward, hence distinct arrays only. *)
let blit_pages (src : int array) src_pos (dst : int array) dst_pos len =
  if len < 0 || src_pos < 0 || dst_pos < 0
     || src_pos > Array.length src - len
     || dst_pos > Array.length dst - len
  then invalid_arg "Vma.blit_pages: range out of bounds";
  if src == dst && len > 0 then invalid_arg "Vma.blit_pages: source and destination alias";
  for i = 0 to len - 1 do
    Array.unsafe_set dst (dst_pos + i) (Array.unsafe_get src (src_pos + i))
  done

(* Spare capacity for a VMA that outgrows its array: a constant share of
   the new size, so a heap that creeps upward reallocates a logarithmic
   number of times, and a brk excursion and its trim, the common case,
   stay inside the array. *)
let grown_length n_pages = n_pages + (n_pages / 8) + 64

(* O(pages gained or lost), not O(size): [data] may be longer than
   [n_pages], and every word past [n_pages] is zero. Shrinking zeroes the
   pages that leave, so no request's data survives in the slack and a
   later growth inside the array has nothing to write. *)
let resize t n_pages =
  if n_pages < 0 then invalid_arg "Vma.resize: negative size";
  let old = t.n_pages in
  if n_pages <> old then begin
    if n_pages < old then Array.fill t.data n_pages (old - n_pages) 0
    else if n_pages > Array.length t.data then begin
      let cap = grown_length n_pages in
      let data = Gh_sim.Buffer_pool.acquire_raw cap in
      blit_pages t.data 0 data 0 old;
      Array.fill data old (cap - old) 0;
      Gh_sim.Buffer_pool.release t.data;
      t.data <- data
    end;
    t.present <- Bitmap.resize t.present n_pages;
    t.soft_dirty <- Bitmap.resize t.soft_dirty n_pages;
    t.cow_pending <- Bitmap.resize t.cow_pending n_pages;
    t.untouched <- Bitmap.resize t.untouched n_pages;
    t.n_pages <- n_pages
  end

(* The child's array has the parent's length, slack included (zero, so
   the copy keeps the invariant); a reaped child's array then goes back
   to the pool under the length the next clone asks for. *)
let clone_cow t =
  let len = Array.length t.data in
  let data = Gh_sim.Buffer_pool.acquire_raw len in
  blit_pages t.data 0 data 0 len;
  {
    t with
    data;
    present = Bitmap.copy t.present;
    soft_dirty = Bitmap.copy t.soft_dirty;
    cow_pending = Bitmap.copy t.present;
    untouched = Bitmap.copy t.present;
  }

(* End of life: hand the page buffer back to this domain's pool. The
   empty replacement makes any later page access fail loudly (index out
   of bounds) instead of silently reading recycled memory. *)
let recycle t =
  Gh_sim.Buffer_pool.release t.data;
  t.data <- [||]
