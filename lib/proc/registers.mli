(** CPU register state of one thread.

    We model the user-visible register file as the instruction pointer, the
    stack pointer, and fourteen general-purpose registers — enough for the
    restore engine to demonstrate (and for tests to verify) that register
    state is captured and reverted exactly. *)

type t = { mutable rip : int; mutable rsp : int; gpr : int array }

val create : unit -> t
(** All-zero register file. *)

val copy : t -> t
val assign : t -> from:t -> unit
val equal : t -> t -> bool

val scramble : t -> Gh_sim.Rng.t -> unit
(** Randomize the file — stands in for whatever the function computed. *)
