(** Discrete-event simulation engine.

    The throughput and scaling experiments run the FaaS platform as a
    discrete-event simulation: clients, invokers, containers and Groundhog
    managers schedule callbacks at future simulated instants, and the engine
    dispatches them in timestamp order (FIFO among equal timestamps).

    The latency experiments don't need the engine at all — they execute one
    request at a time and read costs straight off the accounts. *)

type t

val create : unit -> t

val now : t -> Time_ns.t
(** Current simulated time. *)

val schedule : t -> after:Time_ns.t -> (unit -> unit) -> unit
(** [schedule t ~after f] runs [f] at [now t + after].
    @raise Invalid_argument if [after] is negative. *)

val at : t -> time:Time_ns.t -> (unit -> unit) -> unit
(** [at t ~time f] runs [f] at absolute instant [time], which must not be
    in the simulated past. *)

val at_batch : t -> (Time_ns.t * (unit -> unit)) list -> unit
(** Admit a whole arrival list. Equivalent to calling {!at} on each pair
    in list order — FIFO ties among equal instants follow list position —
    but validated up front: no event is admitted if any instant is in the
    past.
    @raise Invalid_argument if any instant is in the simulated past. *)

val run : t -> until:Time_ns.t -> unit
(** Dispatch events in order until the queue drains or simulated time would
    exceed [until]. Events scheduled exactly at [until] still run. *)

val run_all : ?max_events:int -> t -> unit
(** Dispatch until the queue is empty. [max_events] (default 200
    million, orders of magnitude above any legitimate experiment) bounds the
    total number of dispatched events so a self-sustaining event chain fails
    with a diagnostic instead of diverging.
    @raise Failure when the guard trips.
    @raise Invalid_argument if [max_events <= 0]. *)

val pending : t -> int
(** Number of queued events. *)
