(** One thread of a simulated process. *)

type state = Running | Stopped  (** Stopped = held by a ptrace tracer. *)

type t = { tid : int; regs : Registers.t; mutable state : state }

val create : tid:int -> t
