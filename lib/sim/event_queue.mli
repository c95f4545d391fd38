(** Calendar-queue event scheduler: the engine's hot-loop priority queue.

    Orders elements exactly like a binary min-heap — ascending integer key,
    FIFO among equal keys — but hashes keys into a ring of time buckets so
    the common push/pop is O(1) instead of an O(log n) sift, stores entries
    in pooled structure-of-arrays buckets so a push allocates nothing, and
    overwrites vacated slots so popped values are immediately collectable.
    The binary [Heap] in [test/support/] is the reference implementation;
    the property suite checks the two agree on every (key, seq) pop order.

    Worst cases degrade gracefully: keys beyond the ring's horizon spill to
    an overflow stack that is redistributed (and the bucket width retuned)
    when the ring drains, and keys below the window — possible only by
    scheduling just above a wall clock the window has already passed — go to
    a small auxiliary heap that always drains first. *)

type 'a t

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty queue. [dummy] is a throwaway value of the
    element type used to fill vacated pool slots (e.g. [fun () -> ()] for a
    thunk queue); it is never returned by {!pop}. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> key:int -> 'a -> unit

val push_list : 'a t -> (int * 'a) list -> unit
(** Batch admission: push every [(key, value)] pair in list order — the
    sequence numbers, and hence FIFO ties, match a [push] loop exactly — in
    a single pre-sized pass. Sorted arrival lists (e.g. [Synthetic.burst])
    admit at O(1) per entry. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum-key element, if any; FIFO among equal
    keys. *)

val peek_key : 'a t -> int option
(** The minimum key without removing it. *)

val clear : 'a t -> unit
(** Drop every element and release the pooled storage. *)
