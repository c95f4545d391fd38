(** Minimal JSON values: compact printing and strict parsing.

    Covers exactly what the observability exporters need (Chrome
    trace-event files, metrics snapshots) with no external dependency.
    Numbers parse to [Int] when the literal has no fraction or exponent,
    [Float] otherwise. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering with full string escaping. *)

val to_buffer : Buffer.t -> t -> unit

val add_int : Buffer.t -> int -> unit
(** Append [string_of_int i] without building the string. *)

val of_string : string -> (t, string) result
(** Strict parse of a complete document; [Error] carries the offset. *)

val member : string -> t -> t option
(** Field lookup on an [Assoc]; [None] on anything else. *)

val to_number : t -> float option
(** [Int] or [Float] as a float. *)

val to_str : t -> string option
val to_list : t -> t list option
