(** One function invocation request, as accepted at the platform's HTTP/S
    endpoint. *)

type t = {
  id : int;  (** Unique per experiment run. *)
  principal : Principal.t;  (** The authenticated caller. *)
  nonce : int;  (** Varies the request's private payload. *)
  input_kb : int;  (** Payload size; drives proxying costs. *)
  deadline : Gh_sim.Time_ns.t option;
      (** Absolute simulated instant after which the response is worthless.
          Stamped once at admission (Controller) and immutable thereafter;
          [None] means the request never expires — the pre-overload-protection
          behavior. *)
}

val make :
  id:int -> principal:Principal.t -> ?input_kb:int -> ?deadline:Gh_sim.Time_ns.t -> unit -> t
(** [nonce] defaults to [id]; [input_kb] to 4; [deadline] to [None]. *)

val with_deadline : t -> Gh_sim.Time_ns.t -> t
(** A copy of the request carrying an absolute deadline. *)

val deadline : t -> Gh_sim.Time_ns.t option

val expired : t -> now:Gh_sim.Time_ns.t -> bool
(** [true] iff the request carries a deadline and [now >= deadline]: work
    started at [now] can no longer complete in time, so every hand-off
    sheds it instead of spending a core or restore on it. *)

val secret : t -> int
(** The private data word this request carries. *)
