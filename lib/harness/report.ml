type align = L | R

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | L -> s ^ String.make (width - n) ' '
    | R -> String.make (width - n) ' ' ^ s

let table ppf ~title ~header rows =
  let n_cols = List.fold_left (fun acc r -> max acc (List.length r)) (List.length header) rows in
  let get lst i = match List.nth_opt lst i with Some s -> s | None -> "" in
  let aligns = Array.init n_cols (fun i -> if i = 0 then L else R) in
  let widths = Array.make n_cols 0 in
  List.iter
    (fun r ->
      for i = 0 to n_cols - 1 do
        widths.(i) <- max widths.(i) (String.length (get r i))
      done)
    (header :: rows);
  let render r =
    String.concat "  " (List.init n_cols (fun i -> pad aligns.(i) widths.(i) (get r i)))
  in
  let rule =
    String.concat "--" (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  Format.fprintf ppf "@.== %s ==@.%s@.%s@." title (render header) rule;
  List.iter (fun r -> Format.fprintf ppf "%s@." (render r)) rows;
  Format.fprintf ppf "@."

let series ppf ~title ~x_label ~columns rows =
  let header = x_label :: columns in
  let body =
    List.map
      (fun (x, ys) ->
        Printf.sprintf "%g" x
        :: List.map (function Some y -> Printf.sprintf "%.4g" y | None -> "-") ys)
      rows
  in
  table ppf ~title ~header body

let fmt_ms v =
  if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 10.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.2f" v

let fmt_pct v =
  if Float.is_nan v then "-" else Printf.sprintf "%+.1f%%" v

let fmt_ratio v = if Float.is_nan v then "-" else Printf.sprintf "%.3f" v

let fmt_tput v =
  if v >= 100.0 then Printf.sprintf "%.0f" v
  else if v >= 1.0 then Printf.sprintf "%.2f" v
  else Printf.sprintf "%.3f" v
