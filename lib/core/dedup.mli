(** Content-addressed cross-container snapshot dedup (ROADMAP item 3).

    Containers of the same function reach near-identical warm states, so
    their eager snapshots store largely the same
    {!Snapshot.block_pages}-page blocks. The index keeps one canonical
    copy per distinct block content (hash-keyed, content-guarded against
    collisions); a sharer joining an existing entry stores nothing for
    that block. All-zero blocks are excluded — the zero map already
    elides them, so they cost nothing with or without dedup.

    The price of sharing is blast radius: one physical copy serving many
    containers means a corrupted shared block taints {e every} sharer.
    {!blast} models exactly that — the detection pipeline calls it with
    the corruption's location and every other holder's [on_corrupt] fires
    so the fail-closed recovery can poison them all.

    Reads and hashes stored memory only: registering, scrubbing and
    blasting charge nothing and draw no randomness. *)

type t
(** One dedup index, scoped per function (snapshots of different
    functions never share). *)

type sharer
(** One registered snapshot's membership handle. *)

val create : unit -> t

val register :
  t -> owner:string -> on_corrupt:(Snapshot.corruption -> unit) -> Snapshot.t -> sharer
(** Fold an eager snapshot into the index. [on_corrupt] fires when a
    shared block this snapshot holds is corrupted {e via another
    sharer's} detection ({!blast}); the corruption carries this holder's
    own (region, block) location. *)

val unregister : t -> sharer -> unit
(** Remove a sharer (container killed): its blocks drop out of the
    index once the last holder leaves. Idempotent. *)

val charged_pages : sharer -> int
(** Present pages this sharer actually stores: its snapshot's
    [present_pages] minus the present pages of every block that joined a
    pre-existing canonical copy. Fixed at registration time. *)

val saved_pages : t -> int
(** Present pages the index currently avoids storing:
    Σ over entries of (holders − 1) × block's present pages. *)

val unique_blocks : t -> int
val shared_blocks : t -> int
(** Entries with ≥ 2 holders. *)

val registrations : t -> int
(** Snapshots ever registered (not decremented by unregister). *)

val blast : t -> sharer -> region_addr:int -> block:int -> what:string -> int
(** Corruption was detected at [region_addr]/[block] of [sharer]'s
    snapshot: notify every {e other} holder of that canonical block via
    its [on_corrupt] (with its own location), and return how many were
    hit. 0 when the block is unshared or not indexed (all-zero). *)

val corrupt_shared : t -> int -> (string * int * int) list option
(** Fault-modeling hook for tests: flip a bit in the [n]-th shared
    canonical copy, written through {e every} holder's stored region —
    what a bitflip in a physically deduplicated store does. Returns each
    holder's (owner, region start, block), or [None] if there is no such
    shared entry. *)

val scrub_index : t -> Snapshot.corruption option
(** Verify the index: every canonical copy still hashes to its key and
    every holder's stored block still equals the canonical content. *)
