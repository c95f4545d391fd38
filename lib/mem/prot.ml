type t = { read : bool; write : bool; exec : bool }

let rw = { read = true; write = true; exec = false }
let r = { read = true; write = false; exec = false }
let rx = { read = true; write = false; exec = true }
let none = { read = false; write = false; exec = false }
let equal a b = a = b

let to_string t =
  let c b ch = if b then ch else '-' in
  Printf.sprintf "%c%c%c" (c t.read 'r') (c t.write 'w') (c t.exec 'x')
