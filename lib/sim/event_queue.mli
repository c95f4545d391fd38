(** The event engine's priority queue: a binary min-heap.

    Pops in ascending integer key, FIFO among equal keys: each push takes
    the next insertion sequence number and the heap orders on
    [(key, seq)], which is the engine's determinism contract. Entries live
    in structure-of-arrays storage, so a push allocates nothing once the
    arrays have grown, and a popped slot is overwritten at once so the
    popped value is collectable. The property tests check the pop order
    against a sorted-list model. *)

type 'a t

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty queue. [dummy] is a throwaway value of the
    element type used to fill vacated slots (e.g. [fun () -> ()] for a
    thunk queue); it is never returned by {!pop}. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> key:int -> 'a -> unit
(** O(log n). A key no smaller than every pending key costs one compare,
    so a sorted arrival list admitted behind the pending events costs O(1)
    per entry. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum-key element, if any; FIFO among equal
    keys. *)

val peek_key : 'a t -> int option
(** The minimum key without removing it. *)

val clear : 'a t -> unit
(** Drop every element and release the storage. *)
