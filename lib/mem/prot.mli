(** Memory-protection flags, as carried by every VMA. *)

type t = { read : bool; write : bool; exec : bool }

val rw : t
val r : t
val rx : t
val none : t

val equal : t -> t -> bool

val to_string : t -> string
(** /proc/pid/maps style, e.g. ["rw-"]. *)
