(** A binary min-heap keyed by integer priority (event timestamps).

    Ties are broken by insertion order, so events scheduled for the same
    instant fire FIFO — a property the discrete-event engine relies on for
    determinism.

    The engine itself runs on [Gh_sim.Event_queue]; this heap is the simple
    reference implementation the differential property tests compare it
    against, so the two must keep identical observable ordering. Popped
    slots are overwritten and the array shrinks on large drains, so a
    drained heap no longer pins dispatched closures (or its peak-capacity
    array) against the GC. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> key:int -> 'a -> unit

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum-key element, if any. *)

val peek_key : 'a t -> int option
(** The minimum key without removing it. *)

val clear : 'a t -> unit
