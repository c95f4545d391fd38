(** In-memory process snapshots (§4.2).

    A snapshot is taken once per container, right after the dummy request
    warmed the runtime: the manager interrupts the process, stores every
    thread's CPU state, walks /proc to collect the memory layout and the
    contents of all present pages into its own memory, resets the
    soft-dirty tracking state, and resumes the process. *)

type region = {
  start_addr : int;
  n_pages : int;
  prot : Gh_mem.Prot.t;
  kind : Gh_mem.Vma.kind;
  data : int array;  (** Copy of every page's word (index = page offset). *)
  present : Gh_mem.Bitmap.t;  (** Which pages had frames at snapshot time. *)
  zeros : Gh_mem.Bitmap.t;
      (** Which stored pages are all-zero ([data.(i) = 0]), captured
          during the copy — the restore engine's Zero/Copy split consults
          this instead of re-scanning page contents per restore. *)
  hashes : int array;
      (** One content hash per {!block_pages}-page block, taken from the
          *source* during the zero-elided copy (all-zero blocks get theirs
          by construction, no data read). The snapshot's cryptographic
          identity: scrubbing re-hashes stored data against these;
          restore-time verification re-hashes restored memory. *)
  hstale : Gh_mem.Bitmap.t;
      (** Blocks whose stored content was legitimately updated after
          capture (incremental salvage): their hash re-seals from the
          stored data at the next audit. *)
}

(** {1 Content hashing} *)

val block_pages : int
(** Pages per hash block (= [Bitmap.bits_per_word], 63). *)

val hash_words : int array -> pos:int -> len:int -> int
(** Hash [len] page words starting at [pos], on four interleaved chains
    folded in lane order. Any single-word change is guaranteed to change
    the hash (the per-word mix and the fold are injective in the changed
    word's lane). Depends on the contents only, not on [pos]. *)

val zero_block_hash : int -> int
(** [zero_block_hash len] = [hash_words] of [len] zero words, without
    reading data (precomputed for every [len] in [0 .. block_pages]).
    @raise Invalid_argument outside that range. *)

val region_blocks : region -> int
val block_len : region -> int -> int
(** Pages covered by block [b] (= {!block_pages} except the last). *)

val block_hash : region -> int -> int
(** The reference hash for block [b]; re-seals stale (salvage-touched)
    blocks from the stored content first. *)

val verify_block : region -> int -> bool
(** Does the stored content of block [b] still match its reference hash?
    Stale blocks seal and trivially pass. *)

type t = {
  brk : int;
  regs : (int * Gh_proc.Registers.t) list;  (** tid → register copy. *)
  regions : region list;  (** Ascending by start address. *)
  by_start : (int, region) Hashtbl.t;  (** Start address → region index. *)
  present_pages : int;  (** Total pages copied into the manager. *)
  capture_ns : Gh_sim.Time_ns.t;  (** Cost of taking this snapshot. *)
}

val make :
  brk:int ->
  regs:(int * Gh_proc.Registers.t) list ->
  regions:region list ->
  present_pages:int ->
  capture_ns:Gh_sim.Time_ns.t ->
  t
(** Assemble a snapshot, building the by-start index. The start address
    is each region's identity — scrub cursors, dedup membership and
    restore verification all key on it — so two regions sharing one
    would make every downstream result ambiguous.
    @raise Invalid_argument if two regions share a start address. *)

val capture : Gh_sim.Account.t -> Gh_proc.Process.t -> (t, Gh_sim.Fault.site) result
(** Interrupt, copy, arm soft-dirty tracking, resume. All costs are charged
    to the manager's account; [capture_ns] records the total. On a fault
    the process is resumed, the partial copy discarded, and the site
    returned — the caller must not treat the process as clean.
    @raise Gh_proc.Ptrace.Already_attached if a tracer already holds the
    process. *)

val capture_exn : Gh_sim.Account.t -> Gh_proc.Process.t -> t
(** {!capture} for fault-free contexts. @raise Failure on a fault. *)

val find_region : t -> start_addr:int -> region option

val memory_words : t -> int
(** Size of the snapshot buffer, in stored page words (= pages copied). *)

(** {1 Self-scrubbing}

    Re-hash stored blocks against the reference hashes captured from the
    source: detects buffer corruption ({!Gh_sim.Fault.Snapshot_bitflip},
    {!Gh_sim.Fault.Snapshot_torn}) before a restore ever serves it. *)

type corruption = { region_addr : int; block : int; what : string }

val pp_corruption : Format.formatter -> corruption -> unit

val total_blocks : t -> int
(** Hash blocks across all regions — the length of one full scrub pass. *)

type scrub_result = {
  checked_blocks : int;
  checked_pages : int;
  next_cursor : int;  (** 0 once the pass reached the end of the snapshot. *)
  corrupt : corruption option;
}

val scrub : t -> cursor:int -> blocks:int -> scrub_result
(** Verify up to [blocks] blocks starting at flat block index [cursor]
    (counted across regions in order). Stops early at the first
    corruption. Reads stored memory only — charges nothing, draws no
    randomness. *)

val self_check : t -> corruption option
(** One unbounded scrub pass over the whole snapshot. *)
