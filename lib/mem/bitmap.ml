(* Packed bitmap: 63 usable bits per OCaml-native word. The hot loops —
   count, iter_set, fold_runs — go word-at-a-time and use popcount /
   trailing-zero bit tricks, so all-clean and all-set stretches cost one
   compare per 63 pages instead of one branch per page. *)

let bits_per_word = 63

(* All 63 bits set. OCaml ints are 63-bit two's complement, so -1 is the
   full mask and [lsr]/[land]/[lor] treat words as plain bit vectors. *)
let full = -1

type t = { len : int; words : int array }

let n_words len = (len + bits_per_word - 1) / bits_per_word

(* Invariant: bits at positions >= len in the last word are 0, so count /
   iter_set / fold_runs never have to special-case the tail. *)
let tail_mask len =
  let r = len mod bits_per_word in
  if r = 0 then full else (1 lsl r) - 1

let clamp_tail t =
  let nw = Array.length t.words in
  if nw > 0 && t.len mod bits_per_word <> 0 then
    t.words.(nw - 1) <- t.words.(nw - 1) land tail_mask t.len

let create len =
  if len < 0 then invalid_arg "Bitmap.create: negative length";
  { len; words = Array.make (n_words len) 0 }

let length t = t.len

let check_index t i op =
  if i < 0 || i >= t.len then invalid_arg ("Bitmap." ^ op ^ ": index out of bounds")

let get t i =
  check_index t i "get";
  (Array.unsafe_get t.words (i / bits_per_word) lsr (i mod bits_per_word)) land 1 <> 0

let set t i v =
  check_index t i "set";
  let w = i / bits_per_word and b = i mod bits_per_word in
  let cur = Array.unsafe_get t.words w in
  Array.unsafe_set t.words w (if v then cur lor (1 lsl b) else cur land lnot (1 lsl b))

let fill t v =
  Array.fill t.words 0 (Array.length t.words) (if v then full else 0);
  if v then clamp_tail t

let copy t = { len = t.len; words = Array.copy t.words }

(* A typed copy loop, not [Array.blit]: on a major-heap array (past 256
   words, 16 K pages) OCaml 5's blit pays the [caml_modify] barrier per
   word even for ints, and a brk excursion resizes four maps. *)
let resize t len =
  if len < 0 then invalid_arg "Bitmap.resize: negative length";
  let words = Array.make (n_words len) 0 in
  let keep =
    if Array.length t.words < Array.length words then Array.length t.words
    else Array.length words
  in
  for i = 0 to keep - 1 do
    Array.unsafe_set words i (Array.unsafe_get t.words i)
  done;
  let nt = { len; words } in
  clamp_tail nt;
  nt

let word t i = if i < Array.length t.words then Array.unsafe_get t.words i else 0

let word_count t = Array.length t.words

let words t = t.words

(* Here the divisor is a constant, so this is a multiply and a shift;
   elsewhere [/ bits_per_word] is an [idiv]. *)
let word_index i = i / bits_per_word

(* Mask of bit positions [pos, pos+len) within one word (len <= 63). *)
let mask ~pos ~len =
  if len <= 0 then 0 else if len >= bits_per_word then full else ((1 lsl len) - 1) lsl pos

(* Branch-free popcount, split into two halves so every mask literal fits
   in OCaml's 63-bit int. *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (* OCaml ints don't truncate at 32 bits, so mask the byte-sum down. *)
  (x * 0x01010101) lsr 24 land 0xFF

let popcount w = popcount32 (w land 0xFFFFFFFF) + popcount32 (w lsr 32)

(* Trailing zeros, branch-free: [w land -w] isolates the lowest set bit
   2^k, and multiplying by a de Bruijn constant moves a distinct 6-bit
   window into the top bits for each k in 0..62 (OCaml ints wrap mod
   2^63), which a 64-entry table maps back to k. Window 0 belongs to no
   k, so zero maps to [bits_per_word] without a test. This sits in the
   inner loop of every run hop; the shift-and-test version it replaced
   mispredicted on mixed words. *)
let debruijn = 0x03f79d71b4cb0a89

let ctz_table =
  let t = Bytes.make 64 (Char.chr bits_per_word) in
  for k = 0 to bits_per_word - 1 do
    Bytes.set t (((1 lsl k) * debruijn) lsr 57) (Char.chr k)
  done;
  Bytes.unsafe_to_string t

let ctz w = Char.code (String.unsafe_get ctz_table (((w land -w) * debruijn) lsr 57))

let count t =
  let c = ref 0 in
  for i = 0 to Array.length t.words - 1 do
    let w = Array.unsafe_get t.words i in
    if w <> 0 then c := !c + popcount w
  done;
  !c

let check_range t ~pos ~len op =
  if len < 0 || pos < 0 || pos + len > t.len then
    invalid_arg ("Bitmap." ^ op ^ ": range out of bounds")

let set_range t ~pos ~len v =
  check_range t ~pos ~len "set_range";
  let i = ref pos in
  let stop = pos + len in
  while !i < stop do
    let w = !i / bits_per_word and b = !i mod bits_per_word in
    let n = min (stop - !i) (bits_per_word - b) in
    let m = mask ~pos:b ~len:n in
    t.words.(w) <- (if v then t.words.(w) lor m else t.words.(w) land lnot m);
    i := !i + n
  done

(* Call [f] on each set bit of [w], offset by [base]. Mostly-set words are
   cheaper to scan linearly than to ctz-hop bit by bit; mostly-clear words
   are the opposite, and skipping straight to each set bit is the whole
   point of the packed representation. *)
let iter_word base w f =
  if w <> 0 then begin
    if popcount w > 31 then
      for b = 0 to bits_per_word - 1 do
        if (w lsr b) land 1 = 1 then f (base + b)
      done
    else begin
      let w = ref w in
      while !w <> 0 do
        f (base + ctz !w);
        w := !w land (!w - 1)
      done
    end
  end

let iter_set t f =
  for wi = 0 to Array.length t.words - 1 do
    iter_word (wi * bits_per_word) (Array.unsafe_get t.words wi) f
  done

let iter_set_range t ~pos ~len f =
  check_range t ~pos ~len "iter_set_range";
  let stop = pos + len in
  let wi_lo = pos / bits_per_word in
  let wi_hi = if len = 0 then wi_lo - 1 else (stop - 1) / bits_per_word in
  for wi = wi_lo to wi_hi do
    let base = wi * bits_per_word in
    let m =
      let lo = max 0 (pos - base) and hi = min bits_per_word (stop - base) in
      mask ~pos:lo ~len:(hi - lo)
    in
    iter_word base (Array.unsafe_get t.words wi land m) f
  done

let fold_runs t ~init ~f =
  let acc = ref init in
  let run_start = ref (-1) in
  let nw = Array.length t.words in
  for wi = 0 to nw - 1 do
    let w = Array.unsafe_get t.words wi in
    let base = wi * bits_per_word in
    if w = 0 then begin
      if !run_start >= 0 then begin
        acc := f !acc ~pos:!run_start ~len:(base - !run_start);
        run_start := -1
      end
    end
    else if w = full then begin
      if !run_start < 0 then run_start := base
    end
    else begin
      (* Mixed word: hop between set-bit and clear-bit boundaries with ctz. *)
      let pos = ref 0 in
      while !pos < bits_per_word do
        if !run_start >= 0 then begin
          let inv = lnot w lsr !pos in
          if inv = 0 then pos := bits_per_word
          else begin
            let zero_pos = !pos + ctz inv in
            acc := f !acc ~pos:!run_start ~len:(base + zero_pos - !run_start);
            run_start := -1;
            pos := zero_pos
          end
        end
        else begin
          let rem = w lsr !pos in
          if rem = 0 then pos := bits_per_word
          else begin
            pos := !pos + ctz rem;
            run_start := base + !pos
          end
        end
      done
    end
  done;
  if !run_start >= 0 then acc := f !acc ~pos:!run_start ~len:(t.len - !run_start);
  !acc

let equal a b =
  a.len = b.len && Array.for_all2 ( = ) a.words b.words

let first_diff a b =
  if a.len <> b.len then invalid_arg "Bitmap.first_diff: length mismatch";
  let res = ref None in
  (try
     for wi = 0 to Array.length a.words - 1 do
       let d = Array.unsafe_get a.words wi lxor Array.unsafe_get b.words wi in
       if d <> 0 then begin
         res := Some ((wi * bits_per_word) + ctz d);
         raise Exit
       end
     done
   with Exit -> ());
  !res
