(* Binary min-heap on (key, seq), stored as a structure of arrays.

   The engine's traffic is shallow: the deepest sweep holds ~2.5K pending
   events, and at that depth a heap's log-depth sift costs no more than a
   bucketed calendar queue's bookkeeping (DESIGN §12). Keys and insertion
   sequence numbers live in unboxed int arrays beside the values, so a push
   allocates nothing once the arrays have grown, and the sifts move a hole
   rather than swapping entries.

   A vacated value slot is overwritten with [dummy] at once, so a popped
   closure is collectable; the arrays shrink when mostly empty, so a
   long-lived drained queue does not pin its peak-capacity storage either. *)

type 'a t = {
  dummy : 'a;
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create ~dummy = { dummy; keys = [||]; seqs = [||]; vals = [||]; len = 0; next_seq = 0 }
let is_empty t = t.len = 0
let size t = t.len

(* Entry (k, s) pops strictly before (k', s'). Sequence numbers are unique,
   so this is a total order and the pop sequence is fully determined. *)
let before (k : int) (s : int) k' s' = k < k' || (k = k' && s < s')

let resize t cap =
  let keys = Array.make cap 0 and seqs = Array.make cap 0 and vals = Array.make cap t.dummy in
  Array.blit t.keys 0 keys 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.vals 0 vals 0 t.len;
  t.keys <- keys;
  t.seqs <- seqs;
  t.vals <- vals

(* Sift up from a hole at the end. A key no earlier than its parent's — an
   ascending arrival list, say — stops after one compare. *)
let push t ~key v =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let cap = Array.length t.keys in
  if t.len = cap then resize t (max 8 (cap * 2));
  let keys = t.keys and seqs = t.seqs and vals = t.vals in
  let i = ref t.len in
  t.len <- t.len + 1;
  let sifting = ref true in
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    if before key seq keys.(p) seqs.(p) then begin
      keys.(!i) <- keys.(p);
      seqs.(!i) <- seqs.(p);
      vals.(!i) <- vals.(p);
      i := p
    end
    else sifting := false
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  vals.(!i) <- v

(* Take the root, then sift the last entry down from the root's hole. *)
let pop t =
  if t.len = 0 then None
  else begin
    let keys = t.keys and seqs = t.seqs and vals = t.vals in
    let key0 = keys.(0) and val0 = vals.(0) in
    let n = t.len - 1 in
    t.len <- n;
    let k = keys.(n) and s = seqs.(n) and v = vals.(n) in
    vals.(n) <- t.dummy;
    if n > 0 then begin
      let i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= n then sifting := false
        else begin
          let r = l + 1 in
          let c = if r < n && before keys.(r) seqs.(r) keys.(l) seqs.(l) then r else l in
          if before keys.(c) seqs.(c) k s then begin
            keys.(!i) <- keys.(c);
            seqs.(!i) <- seqs.(c);
            vals.(!i) <- vals.(c);
            i := c
          end
          else sifting := false
        end
      done;
      keys.(!i) <- k;
      seqs.(!i) <- s;
      vals.(!i) <- v
    end;
    let cap = Array.length keys in
    if cap > 64 && n * 4 < cap then resize t (max 16 (cap / 2));
    Some (key0, val0)
  end

let peek_key t = if t.len = 0 then None else Some t.keys.(0)

let clear t =
  t.keys <- [||];
  t.seqs <- [||];
  t.vals <- [||];
  t.len <- 0
