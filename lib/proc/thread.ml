type state = Running | Stopped
type t = { tid : int; regs : Registers.t; mutable state : state }

let create ~tid = { tid; regs = Registers.create (); state = Running }
