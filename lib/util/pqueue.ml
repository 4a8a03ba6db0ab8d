(* Struct-of-arrays min-heap: priorities live in an unboxed [float array],
   tie-break sequences in an [int array], payloads in an ['a array] padded
   with a caller-supplied dummy.  Push/pop allocate nothing (amortized), and
   the sift loops shift entries into the hole instead of swapping. *)
type 'a t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ~dummy () =
  { prio = [||]; seq = [||]; vals = [||]; len = 0; next_seq = 0; dummy }

let length t = t.len
let is_empty t = t.len = 0
let capacity t = Array.length t.prio
let min_priority t = if t.len = 0 then infinity else Array.unsafe_get t.prio 0

let grow t =
  let cap = max 64 (2 * Array.length t.prio) in
  let prio = Array.make cap infinity in
  let seq = Array.make cap 0 in
  let vals = Array.make cap t.dummy in
  Array.blit t.prio 0 prio 0 t.len;
  Array.blit t.seq 0 seq 0 t.len;
  Array.blit t.vals 0 vals 0 t.len;
  t.prio <- prio;
  t.seq <- seq;
  t.vals <- vals

let push t ~priority v =
  if Float.is_nan priority then invalid_arg "Pqueue.push: NaN priority";
  if t.len = Array.length t.prio then grow t;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  let prio = t.prio and seq = t.seq and vals = t.vals in
  (* Sift the hole up: the new entry has the largest seq, so on priority
     ties the incumbent parent stays put. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get prio parent in
    if priority < pp then begin
      Array.unsafe_set prio !i pp;
      Array.unsafe_set seq !i (Array.unsafe_get seq parent);
      Array.unsafe_set vals !i (Array.unsafe_get vals parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set prio !i priority;
  Array.unsafe_set seq !i s;
  Array.unsafe_set vals !i v

let pop_exn t =
  if t.len = 0 then invalid_arg "Pqueue.pop_exn: empty";
  let prio = t.prio and seq = t.seq and vals = t.vals in
  let top = Array.unsafe_get vals 0 in
  let n = t.len - 1 in
  t.len <- n;
  if n = 0 then begin
    Array.unsafe_set prio 0 infinity;
    Array.unsafe_set vals 0 t.dummy
  end
  else begin
    (* Sift the displaced last entry down into the hole at the root. *)
    let lp = Array.unsafe_get prio n in
    let ls = Array.unsafe_get seq n in
    let lv = Array.unsafe_get vals n in
    Array.unsafe_set prio n infinity;
    Array.unsafe_set vals n t.dummy;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let pl = Array.unsafe_get prio l and pr = Array.unsafe_get prio r in
            if
              pr < pl
              || (pr = pl && Array.unsafe_get seq r < Array.unsafe_get seq l)
            then r
            else l
          end
          else l
        in
        let cp = Array.unsafe_get prio c in
        if cp < lp || (cp = lp && Array.unsafe_get seq c < ls) then begin
          Array.unsafe_set prio !i cp;
          Array.unsafe_set seq !i (Array.unsafe_get seq c);
          Array.unsafe_set vals !i (Array.unsafe_get vals c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set prio !i lp;
    Array.unsafe_set seq !i ls;
    Array.unsafe_set vals !i lv
  end;
  top
