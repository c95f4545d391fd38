(** Incremental (copy-on-write) snapshots — §5.5's proposed optimization.

    An eager {!Snapshot.capture} copies every present page into the
    manager, so snapshot time and manager memory are proportional to the
    function's whole paged-in footprint (tens to hundreds of MB for
    Node.js). The paper notes the alternative: arm copy-on-write at
    snapshot time and salvage a page's original contents the {e first}
    time it is ever modified — a one-time on-critical-path copy per unique
    modified page over the container's lifetime, after which manager
    memory holds only what restores actually need.

    [capture] records layout, presence bitmaps, brk and registers eagerly
    (cheap) and installs the address space's salvage hook; the returned
    {!Snapshot.t} materializes page contents lazily, and — because the
    hook always fires before content is lost — is always complete enough
    for {!Restore.run}, which works on it unchanged. Restores are
    bit-for-bit identical to eager snapshots (property-tested). *)

type t

val capture : Gh_sim.Account.t -> Gh_proc.Process.t -> (t, Gh_sim.Fault.site) result
(** Interrupt, record metadata, arm CoW + soft-dirty tracking, resume.
    Charged without the per-page copies of an eager capture. On a fault the
    process is resumed and nothing is armed.
    @raise Gh_proc.Ptrace.Already_attached if a tracer holds the process. *)

val snapshot : t -> Snapshot.t
(** The progressively materialized snapshot — pass to {!Restore.run}.
    Unlike the eager path, restored pages are {e not} re-armed for CoW:
    their originals are already saved, so later invocations pay no
    further salvage faults ("one-time per unique modified page").
    (Note: {!Verify.state_matches} compares {e every} present page's
    contents, so it only agrees with an incremental snapshot once all
    pages have been salvaged; restores themselves never read unsalvaged
    pages, because an unsalvaged page is by construction unmodified.) *)

val saved_pages : t -> int
(** Pages salvaged so far — the manager's data memory, in pages. *)
