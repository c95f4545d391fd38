(** Virtual memory areas: contiguous page-granular mappings.

    Each page carries one data word — enough to give leaks and restores real
    data semantics (a secret written by request A is a concrete value that
    request B can observe) while keeping 200K-page address spaces cheap to
    simulate. Timing is charged separately, per 4 KiB page, by the cost
    model. *)

val page_size : int
(** 4096 bytes; all addresses are page-aligned. *)

type kind =
  | Text  (** Program text / shared libraries. *)
  | Data  (** Statically allocated writable data. *)
  | Heap  (** The brk-managed heap. *)
  | Stack
  | Anon  (** mmap'd anonymous memory (malloc arenas, runtime pools). *)
  | Wasm_linear  (** FAASM-style contiguous linear memory. *)

type t = {
  id : int;  (** Unique within an address space; survives resizes. *)
  mutable start_addr : int;
  mutable n_pages : int;
  mutable prot : Prot.t;
  kind : kind;
  mutable data : int array;
      (** One word per page for pages [\[0, n_pages)]. The array may be
          longer (spare capacity left by {!resize}); every word past
          [n_pages] is zero. *)
  mutable present : Bitmap.t;  (** Page has a frame (was touched). *)
  mutable soft_dirty : Bitmap.t;  (** Kernel soft-dirty bit. *)
  mutable cow_pending : Bitmap.t;  (** Next write pays a CoW copy fault. *)
  mutable untouched : Bitmap.t;  (** Next access pays a first-touch fault. *)
  mutable fault_gran : int;
      (** Pages covered by one PTE-level fault: 1 for base pages, up to 512
          when the region is backed by transparent huge pages — one re-arm
          or demand-zero fault then covers the whole block. *)
}

val create : id:int -> start_addr:int -> n_pages:int -> prot:Prot.t -> kind -> t
val end_addr : t -> int
val contains : t -> int -> bool

val page_index : t -> int -> int
(** [page_index t addr] is the page offset of [addr] within [t].
    @raise Invalid_argument if [addr] is outside [t]. *)

val blit_pages : int array -> int -> int array -> int -> int -> unit
(** [blit_pages src src_pos dst dst_pos len] copies [len] page words, like
    [Array.blit] but as plain stores: OCaml 5's [Array.blit] pays the
    [caml_modify] write barrier per word on a major-heap array, even an
    [int array]. All page data ([data] here, snapshot buffers) is copied
    through this.
    @raise Invalid_argument if either range is out of bounds, or if [src]
    and [dst] are the same array (the copy runs forward). *)

val resize : t -> int -> unit
(** Grow (zero-filled, non-present new pages) or shrink at the end, in
    time proportional to the pages gained or lost: shrinking zeroes the
    pages that leave, growth within [data] writes nothing, and growth past
    it reallocates with spare capacity. *)

val clone_cow : t -> t
(** Deep copy for fork: data duplicated (at the parent's array length),
    [cow_pending] and [untouched] set on every present page so the child
    pays CoW/first-touch faults. *)

val recycle : t -> unit
(** Release the page buffer into this domain's {!Gh_sim.Buffer_pool} and
    replace it with an empty array. Only for VMAs that nothing will touch
    again (a reaped fork child); any later page access raises. *)
