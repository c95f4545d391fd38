(** Per-domain reuse pools for the big page-data arrays (fork clones,
    VMA growth past its array's capacity).

    Acquire/release touch only the calling domain's pool (via
    [Domain.DLS]), so there is no synchronization on the hot path and the
    pool composes with {!Domain_pool} sharding by construction. Arrays
    are keyed by exact length, and an acquire returns exactly the length
    asked for; [acquire_zeroed] is observationally
    identical to [Array.make n 0]. Releasing an array the caller still
    reads from is the usual use-after-free hazard — release only at a
    clear end-of-life point (a reaped fork child, a replaced backing
    array). *)

val acquire_zeroed : int -> int array
(** All slots zero, like [Array.make n 0]. *)

val acquire_raw : int -> int array
(** Contents unspecified: the caller must overwrite every slot before
    reading any. *)

val release : int array -> unit
(** Hand an array back to this domain's pool. Drops it (for the GC) once
    the pool holds 64 M words. Never release an array that anything can
    still read. *)

type stats = { hits : int; misses : int; releases : int; held_words : int }

val stats : unit -> stats
(** This domain's pool counters (for [--gc-stats] reporting). *)
