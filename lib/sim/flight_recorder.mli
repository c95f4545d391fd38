(** A failure flight recorder: bounded ring of forensic dumps, each
    freezing the recent past — trace events, closed spans, and windowed
    metric deltas — at the instant a failure edge fires (container
    poisoned, node quarantine, breaker open, scrub corruption).

    The recorder copies nothing until {!snapshot} is called from a
    failure handler that already holds the clock; it never schedules
    engine work, so recording is sim-time neutral. *)

type dump = {
  d_at : Time_ns.t;
  d_reason : string;
  d_detail : string;
  d_node : string;
  d_window_ns : Time_ns.t;
  d_events : Trace.event list;  (** Within [[d_at - window, d_at]], oldest first. *)
  d_spans : Span.record list;  (** Closed spans overlapping the window. *)
  d_series : (string * (int * float) list) list;
      (** Counter deltas / gauge samples in windows inside the window. *)
}

type t

val create :
  ?capacity:int ->
  ?window_ns:Time_ns.t ->
  ?trace:Trace.t ->
  ?spans:Span.t ->
  ?series:Timeseries.t ->
  name:string ->
  unit ->
  t
(** Ring of at most [capacity] dumps (default 16), each covering the
    [window_ns] (default 500 ms sim time) before the failure.
    @raise Invalid_argument on a non-positive capacity or window. *)

val snapshot :
  t -> now:Time_ns.t -> ?node:string -> reason:string -> detail:string -> unit -> dump
(** Freeze the pre-failure window from the attached collectors. The
    oldest dump is evicted once the ring is full. *)

val dumps : t -> dump list
(** Retained dumps, oldest first. *)

val total : t -> int
(** Dumps ever taken (including evicted ones). *)

val to_json : t -> Json.t

val validate : Json.t -> (int, string) result
(** Schema-check an exported recorder document (like
    {!Span.validate_chrome}): every dump must carry its timestamp,
    reason, node and window, and every event/span/series point must lie
    within that dump's pre-failure window. Returns the dump count. *)
