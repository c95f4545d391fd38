(** Bit-for-bit comparison of a process against a snapshot.

    This is the security property: a restored process must be
    indistinguishable from the snapshotted one, so no data written by the
    previous request can survive. Used by the test suite and by the
    manager's optional paranoid mode. *)

type mismatch = {
  what : string;  (** e.g. ["page content"], ["brk"], ["region missing"]. *)
  where : string;  (** Address / tid context for diagnostics. *)
}

val state_matches : Snapshot.t -> Gh_proc.Process.t -> (unit, mismatch) result
(** [Ok ()] iff layout (regions, sizes, protections), brk, every present
    bit, every page's content, the thread set, and every register file all
    equal the snapshot. Stops at the first mismatch. *)

val pp_mismatch : Format.formatter -> mismatch -> unit

val audit_hashes :
  ?stride:int ->
  ?offset:int ->
  Snapshot.t ->
  Gh_proc.Process.t ->
  (int, Snapshot.corruption) result
(** Re-hash the restored process's memory per {!Snapshot.block_pages}-page
    block against the snapshot's reference hashes; [Ok n] is the number of
    blocks checked. Checks only blocks whose flat index ≡ [offset]
    (mod [stride]) — [stride = 1] (default) is a full audit; the manager's
    sampled policy rotates [offset] across restores so every block is
    eventually covered. Unlike {!state_matches} this reads no stored page
    words (one hash per block), and it catches silently-skipped restore
    runs, served bitflips and torn captures alike. A block whose
    reference is {!Snapshot.zero_block_hash} passes only if every restored
    word is zero (checked without hashing) — at least as strict as the
    hash compare. Reads memory only: charges nothing, draws no
    randomness. *)
