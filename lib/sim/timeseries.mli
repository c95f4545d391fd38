(** Sim-clock-windowed time series over a {!Metrics} registry.

    A collector turns the registry's point-in-time state into series —
    per-window counter deltas, gauge samples at window close, and
    caller-observed {!Sketch} quantile windows — without ever touching
    the engine: windows roll lazily when instrumented code hands it the
    clock via {!tick}/{!observe}. Attaching one is sim-time neutral.

    Window [w] covers [[w * window_ns, (w+1) * window_ns)] on the sim
    clock, so series collected independently (per node, per domain)
    {!merge} by window index: counter deltas add, gauge samples union,
    sketches {!Sketch.merge} — all order-independent and bit-identical
    under any sharding. *)

type t

val create : ?window_ns:Time_ns.t -> Metrics.t -> t
(** Windows are [window_ns] long (default 100 ms of simulated time); the
    per-window sketches bound relative error at 0.01.
    @raise Invalid_argument if [window_ns <= 0]. *)

val window_of : t -> at:Time_ns.t -> int

val tick : t -> now:Time_ns.t -> unit
(** Roll windows up to [now]: if the clock has entered a new window,
    close the old one (record counter deltas and gauge samples). Cheap
    when nothing changed; call it from any site that holds the clock. *)

val observe : t -> now:Time_ns.t -> string -> float -> unit
(** Add a sample to the named sketch series in the current window
    (rolls first, like {!tick}). *)

val flush : t -> now:Time_ns.t -> unit
(** Close the in-progress window so every recorded delta/sample is
    visible to the accessors and exporters. Call once before export. *)

val rolled_windows : t -> int

val counter_points : t -> string -> (int * int) list
(** (window, delta) pairs, oldest first; zero deltas are never stored. *)

val gauge_points : t -> string -> (int * float) list
val sketch_windows : t -> string -> (int * Sketch.t) list

val names : t -> (string * [ `Counter | `Gauge | `Sketch ]) list
(** Every series, sorted by name within each kind. *)

val recent : t -> since:Time_ns.t -> (string * (int * float) list) list
(** Counter deltas and gauge samples in windows at or after [since] —
    the flight recorder's pre-failure metric view. Sorted by name. *)

val merge : t -> t -> t
(** Combine two collectors' series by window index. The result is a
    read-only view (it has no registry; [tick] on it records nothing).
    Bit-identical regardless of merge order or sharding.
    @raise Invalid_argument on a window or alpha mismatch. *)

val render_prom : Format.formatter -> t -> unit
(** Prometheus text exposition: sanitized metric names (original dotted
    name as a [series] label), one timestamped sample per window. *)

val to_json : t -> Json.t
