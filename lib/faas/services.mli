(** Platform services: an access-controlled key-value store (§2).

    Functions are expected to externalize all persistent state to services
    like this one, and access is checked against the {e activation's}
    per-caller credentials — the tenant's tool for controlling information
    flow among differently privileged callers of the same function. *)

type t

type error = Access_denied of { key : string; principal : Principal.t }

val create : unit -> t

val grant : t -> Principal.t -> key:string -> unit
(** Allow [principal] to read and write [key]. *)

val put : t -> Principal.t -> key:string -> int -> (unit, error) result
val get : t -> Principal.t -> key:string -> (int option, error) result

val pp_error : Format.formatter -> error -> unit
