type t = {
  store : (string, int) Hashtbl.t;
  acl : (string * int, unit) Hashtbl.t;  (* (key, principal id) *)
}

type error = Access_denied of { key : string; principal : Principal.t }

let create () = { store = Hashtbl.create 64; acl = Hashtbl.create 64 }
let grant t p ~key = Hashtbl.replace t.acl (key, p.Principal.id) ()
let allowed t p ~key = Hashtbl.mem t.acl (key, p.Principal.id)

let put t p ~key v =
  if allowed t p ~key then begin
    Hashtbl.replace t.store key v;
    Ok ()
  end
  else Error (Access_denied { key; principal = p })

let get t p ~key =
  if allowed t p ~key then Ok (Hashtbl.find_opt t.store key)
  else Error (Access_denied { key; principal = p })

let pp_error ppf (Access_denied { key; principal }) =
  Format.fprintf ppf "access denied: %a on key %S" Principal.pp principal key
