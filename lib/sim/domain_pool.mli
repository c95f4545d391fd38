(** Shard independent experiment cells across OCaml 5 domains.

    [parallel_map] preserves input order and replays [List.map]'s
    exception semantics, so as long as each job is a pure function of its
    input (the harness cells all seed their own RNG from the cell key),
    the merged output is byte-identical to the serial run — the
    determinism contract DESIGN §15 spells out. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the pool size that saturates
    this machine. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map ~jobs f xs] applies [f] to every element of [xs] using
    up to [jobs] domains (the caller is one of them; [jobs] defaults to
    {!recommended_jobs}) and returns the results in input order.

    Idle domains steal the next unclaimed job from a shared atomic pile,
    so skewed per-job costs self-balance. With [jobs <= 1], a singleton
    or empty list, or when called from inside a pool job (nested sweeps
    must not multiply domains), this is exactly [List.map f xs] — no
    domain is spawned.

    If any jobs raise, every remaining job still runs, and the exception
    of the lowest raising index is re-raised with its backtrace — the
    same exception [List.map f xs] would have produced. *)
