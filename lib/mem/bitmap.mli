(** Dense per-page bit maps (present, soft-dirty, CoW-pending, ...).

    Packed 63 pages per OCaml-native word. Restoration cost is dominated by
    O(mapped pages) scans over these maps (paper §4.4, Fig. 8), so the scan
    entry points — {!count}, {!iter_set}, {!fold_runs} — work
    word-at-a-time: popcount for counting, trailing-zero-count hops for run
    boundaries, and whole-word skips over all-clean / all-set stretches.

    Invariant maintained throughout: bits at positions [>= length t] in the
    final word are zero. *)

type t

val bits_per_word : int
(** Pages per packed word (63: OCaml-native ints). *)

val create : int -> t
(** [create n] is an all-zero map over [n] pages. *)

val length : t -> int

val get : t -> int -> bool
(** @raise Invalid_argument if the index is out of bounds. *)

val set : t -> int -> bool -> unit
(** @raise Invalid_argument if the index is out of bounds. *)

val fill : t -> bool -> unit

val set_range : t -> pos:int -> len:int -> bool -> unit
(** Set [len] consecutive bits from [pos], whole words at a time.
    @raise Invalid_argument if the range is out of bounds. *)

val copy : t -> t

val resize : t -> int -> t
(** [resize t n] keeps the common prefix, zero-extends when growing. *)

val count : t -> int
(** Number of set bits (per-word popcount). *)

val popcount : int -> int
(** Set bits in one packed word (branch-free SWAR). *)

val ctz : int -> int
(** Trailing zeros of a packed word; [bits_per_word] for zero. Branch-free
    (de Bruijn multiply and a table load). *)

val word : t -> int -> int
(** [word t i] is the [i]-th packed word — bits
    [i * bits_per_word .. (i+1) * bits_per_word - 1] — or [0] when [i] is
    past the last word. Bits past [length t] are always zero. *)

val word_count : t -> int
(** Number of packed words backing the map. *)

val words : t -> int array
(** The backing words themselves, shared, not copied: word [i] holds bits
    [i * bits_per_word .. (i+1) * bits_per_word - 1]. For page kernels in
    other modules that must not make a call per word (library modules
    are compiled [-opaque] in the dev profile, so {!word} is a real call
    there). Writers must keep bits at positions [>= length t] zero. *)

val word_index : int -> int
(** [word_index i = i / bits_per_word], the word holding bit [i]. Compiled
    where the divisor is a known constant, so it costs a multiply where a
    caller's own [/ bits_per_word] would be a hardware divide. *)

val mask : pos:int -> len:int -> int
(** Mask of bit positions [\[pos, pos+len)] within one packed word
    ([pos + len <= bits_per_word]); the word-kernel building block. *)

val iter_set : t -> (int -> unit) -> unit
(** Apply to each set index, ascending; zero words are skipped whole. *)

val iter_set_range : t -> pos:int -> len:int -> (int -> unit) -> unit
(** [iter_set] restricted to [\[pos, pos+len)].
    @raise Invalid_argument if the range is out of bounds. *)

val fold_runs : t -> init:'a -> f:('a -> pos:int -> len:int -> 'a) -> 'a
(** Fold over maximal runs of consecutive set bits, ascending — used by the
    restore engine's copy coalescing. Run boundaries are located with
    trailing-zero-count on the word and its complement. *)

val equal : t -> t -> bool
(** Same length and same bits (word-wise compare). *)

val first_diff : t -> t -> int option
(** Index of the first differing bit between two equal-length maps.
    @raise Invalid_argument on a length mismatch. *)
