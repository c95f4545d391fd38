(** A registry of named counters, gauges and histograms.

    Components look a handle up once (by name, at creation time) and
    mutate it directly on the hot path. Histograms keep exact count /
    mean / std over every observation plus a bounded sample for
    quantiles; the sample is either exhaustive ({!All}, a {!Reservoir}
    whose seed the caller pins — bit-identical to using a raw reservoir)
    or deterministic head-based sampling ({!Head}). Nothing here touches
    wall clocks or shared randomness, so registries are sim-time neutral
    and replay identically under a fixed seed. *)

type counter
type gauge
type histogram

type sampling =
  | All
  | Head of { head : int; stride : int }
      (** Keep the first [head] observations, then every [stride]-th. *)

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-create. @raise Invalid_argument if the name is registered as
    a different kind. *)

val gauge : t -> string -> gauge

val histogram : ?capacity:int -> ?seed:int -> ?sampling:sampling -> t -> string -> histogram
(** Find-or-create (creation parameters are ignored on a hit). Default:
    capacity 4096, seed [Hashtbl.hash name], [Head {head = 512; stride = 16}]. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
val values : histogram -> float list
(** The stored sample, newest first (exact and complete while the
    observation count is below capacity under [All]). *)

val observed : histogram -> int
(** Observations offered, sampled or not. *)

val hist_count : histogram -> int
val hist_mean : histogram -> float

val find_counter : t -> string -> counter option
val find_histogram : t -> string -> histogram option

val snapshot : t -> (string * metric) list
(** Every metric, sorted by name. *)

val render : Format.formatter -> t -> unit
(** Text snapshot, one sorted line per metric — stable for golden-file
    diffs. *)
