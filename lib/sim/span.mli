(** Request-scoped span trees on the simulated clock.

    A collector records one span tree per request: a ["request"] root plus
    a child per phase (controller overhead, admission queue, dispatch,
    exec, restore, ...). Components open and close spans at every
    hand-off; the collector only ever {e reads} the timestamps it is
    given — it never schedules engine work, charges simulated time, or
    draws randomness — so attaching one is sim-time neutral: every figure
    stays bit-identical with tracing on or off.

    Deferred work whose length is decided up front (a strategy's restore
    runs for exactly [post_ns]) may be recorded via {!complete} with a
    future stop timestamp; {!finish_root} closes the root at the maximum
    of the completion time and the latest child stop, so those children
    still nest. *)

type record = {
  id : int;
  parent : int option;
  track : int;  (** Request id; exported as the Chrome [tid]. *)
  name : string;
  cat : string;
  start_ns : Time_ns.t;
  mutable stop_ns : Time_ns.t;
  mutable attrs : (string * string) list;
}

type t

val create : unit -> t

val start :
  t ->
  at:Time_ns.t ->
  ?parent:record ->
  ?track:int ->
  name:string ->
  ?cat:string ->
  ?attrs:(string * string) list ->
  unit ->
  record
(** Open a span. The track defaults to the parent's (0 for a parentless
    span). *)

val finish : t -> at:Time_ns.t -> ?attrs:(string * string) list -> record -> unit
(** Close an open span. @raise Invalid_argument on double-close or a stop
    before the start. *)

val complete :
  t ->
  start:Time_ns.t ->
  stop:Time_ns.t ->
  ?parent:record ->
  ?track:int ->
  name:string ->
  ?cat:string ->
  ?attrs:(string * string) list ->
  unit ->
  record
(** Record a span whose bounds are both known (the stop may lie in the
    simulated future — see the module comment). *)

val is_open : record -> bool
val duration_ns : record -> Time_ns.t option

val ensure_root : t -> at:Time_ns.t -> req_id:int -> ?attrs:(string * string) list -> unit -> record
(** The request's root span, created on first use. *)

val find_root : t -> req_id:int -> record option

val finish_root : t -> at:Time_ns.t -> ?attrs:(string * string) list -> req_id:int -> unit -> unit
(** Close the request's root (no-op if absent), first closing any phase
    still open under it; the stop is the max of [at] and the latest child
    stop on the request's track. *)

val phase_start : t -> at:Time_ns.t -> req_id:int -> name:string -> ?cat:string -> unit -> unit
(** Open a phase keyed by [(req_id, name)] under the request's root, so
    the closing site needs no handle from the opening site. Reopening a
    key closes the stale phase first. *)

val phase_stop :
  t -> at:Time_ns.t -> req_id:int -> name:string -> ?attrs:(string * string) list -> unit -> unit
(** Close the keyed phase; no-op if none is open. *)

val records : t -> record list
(** Every span recorded, oldest first. *)

val count : t -> int
val open_count : t -> int

val check : t -> (unit, string) result
(** Structural invariants: every span closed, every child within its
    parent's bounds. *)

val chrome_json : t -> string
(** Chrome trace-event document (Perfetto-loadable): one ["X"] complete
    event per closed span ([ts]/[dur] in microseconds, [tid] = request id)
    plus ["M"] thread-name metadata for every track. Open spans are
    skipped. Written straight into one buffer, without a [Json.t] tree. *)

val validate_chrome : Json.t -> (int, string) result
(** Check a parsed document against the Chrome trace-event schema;
    returns the number of events. *)
