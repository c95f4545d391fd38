(** Lightweight structured event tracing for the simulator.

    A trace is a bounded ring buffer of timestamped events. Components that
    accept an optional trace emit one event per interesting transition
    (request dispatched, restore started, container idle, ...); the
    examples and the debugging workflow render them as a timeline.

    Tracing is off (and free) unless a trace is attached. *)

type t

type event = {
  at : Time_ns.t;  (** Simulated timestamp. *)
  category : string;  (** e.g. ["container"], ["restore"], ["client"]. *)
  what : string;  (** Short event label. *)
  detail : string;  (** Free-form context. *)
}

val create : ?capacity:int -> unit -> t
(** Ring buffer holding the most recent [capacity] events (default 4096). *)

val emit : t -> at:Time_ns.t -> category:string -> what:string -> string -> unit

val emitf :
  t -> at:Time_ns.t -> category:string -> what:string -> ('a, unit, string, unit) format4 -> 'a

val emitf_opt :
  t option ->
  at:Time_ns.t ->
  category:string ->
  what:string ->
  ('a, unit, string, unit) format4 ->
  'a
(** Like {!emitf} on [Some tr]; on [None] the format arguments are
    consumed without ever building the detail string (the format walk
    allocates one small closure per conversion). *)

val events : t -> event list
(** Oldest first. At most [capacity] events (older ones were dropped). *)

val dropped : t -> int
(** How many events were evicted by the ring. *)

val length : t -> int
val clear : t -> unit

val find : t -> category:string -> event list
(** Events of one category, oldest first. *)

val render : Format.formatter -> t -> unit
(** The whole timeline, one event per line. *)
