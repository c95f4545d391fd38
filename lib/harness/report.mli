(** Plain-text rendering of experiment results: fixed-width tables and
    gnuplot-style series blocks, printed to a formatter. *)

val table : Format.formatter -> title:string -> header:string list -> string list list -> unit
(** Render rows under a rule-separated header, the first column aligned
    left and the rest right. Ragged rows are padded. *)

val series :
  Format.formatter ->
  title:string ->
  x_label:string ->
  columns:string list ->
  (float * float option list) list ->
  unit
(** A plottable block: one x per row, one column per line/series; missing
    points print as "-". *)

val fmt_ms : float -> string
(** Milliseconds with adaptive precision. *)

val fmt_pct : float -> string
(** Signed percentage, e.g. ["+1.5%"]. *)

val fmt_ratio : float -> string
val fmt_tput : float -> string
