(* Binary min-heap in structure-of-arrays layout: the (time, seq) keys and
   the payloads live in three parallel arrays instead of one array of
   boxed [entry] records.  [Time.t] is a private [int] and every payload
   is an [int] (an arena slot), so all three are plain int arrays: a push
   or pop allocates nothing, and no store pays the write barrier.
   Sift-up/-down move array cells, never boxes.

   Sift operations are hole-lifting: the moving element is held in
   locals while parents/children shift into the hole, so each level
   costs one store per array rather than a three-array swap. *)

type t = {
  mutable times : Time.t array;
  mutable seqs : int array;
  mutable values : int array;
  mutable size : int;
  (* key of the last element {!remove_top} took off, read back through
     {!popped_time}/{!popped_seq} so the pop itself returns no tuple *)
  mutable popped_time : Time.t;
  mutable popped_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; values = [||]; size = 0; popped_time = Time.zero; popped_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

(* Capacity of the key arrays — preserved across {!clear} so a reused
   heap never re-climbs the 64-element growth ladder. *)
let capacity t = Array.length t.times

(* Cold path: double the key/payload arrays. *)
let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let ntimes = Array.make ncap Time.zero in
  Array.blit t.times 0 ntimes 0 t.size;
  t.times <- ntimes;
  let nseqs = Array.make ncap 0 in
  Array.blit t.seqs 0 nseqs 0 t.size;
  t.seqs <- nseqs;
  let nvalues = Array.make ncap 0 in
  Array.blit t.values 0 nvalues 0 t.size;
  t.values <- nvalues

(* Is the key (time, seq) strictly less than the entry at index [j]?
   [Time.t] is a private [int], so these comparisons compile to plain
   integer compares. *)
let key_less t (time : Time.t) seq j =
  let tj = t.times.(j) in
  time < tj || (time = tj && seq < t.seqs.(j))

(* Is the entry at index [j] strictly less than the key (time, seq)? *)
let entry_less t j (time : Time.t) seq =
  let tj = t.times.(j) in
  tj < time || (tj = time && t.seqs.(j) < seq)

let push t ~time ~seq v =
  if t.size = Array.length t.times then grow t;
  let i = ref t.size in
  t.size <- t.size + 1;
  (* hole-lift sift up *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key_less t time seq parent then begin
      t.times.(!i) <- t.times.(parent);
      t.seqs.(!i) <- t.seqs.(parent);
      t.values.(!i) <- t.values.(parent);
      i := parent
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.values.(!i) <- v

let peek t = if t.size = 0 then None else Some (t.times.(0), t.seqs.(0), t.values.(0))

(* Allocation-free peek for hot callers that only need the root's key
   ([Wheel]'s overflow checks): no option, no tuple. *)
let peek_time t = if t.size = 0 then Time.infinity else t.times.(0)

(* The root's sequence number, [max_int] when empty; with [peek_time] it
   orders the root against another queue's minimum without a tuple. *)
let peek_seq t = if t.size = 0 then max_int else t.seqs.(0)

(* Remove the root and return its payload, leaving its key in
   [popped_time]/[popped_seq]; requires [t.size > 0]. *)
let remove_top t =
  let rv = t.values.(0) in
  t.popped_time <- t.times.(0);
  t.popped_seq <- t.seqs.(0);
  t.size <- t.size - 1;
  let n = t.size in
  if n > 0 then begin
    (* Hole-lift sift down with the former last element. *)
    let ltime = t.times.(n) and lseq = t.seqs.(n) and lv = t.values.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && key_less t t.times.(r) t.seqs.(r) l then r else l
        in
        if entry_less t c ltime lseq then begin
          t.times.(!i) <- t.times.(c);
          t.seqs.(!i) <- t.seqs.(c);
          t.values.(!i) <- t.values.(c);
          i := c
        end
        else continue := false
      end
    done;
    t.times.(!i) <- ltime;
    t.seqs.(!i) <- lseq;
    t.values.(!i) <- lv
  end;
  rv

let popped_time t = t.popped_time
let popped_seq t = t.popped_seq

let pop t =
  if t.size = 0 then None
  else
    let v = remove_top t in
    Some (t.popped_time, t.popped_seq, v)

(* Single-traversal peek+pop: pop the minimum only when it is due.  This
   is the event loop's hot path — one root comparison replaces the
   peek-then-pop double traversal, and the [-1] sentinel plus the
   [popped_time] field replace an option and a tuple per event. *)
let pop_if_le t ~(until : Time.t) =
  if t.size = 0 || t.times.(0) > until then -1 else remove_top t

(* Keys and payloads are immediate ints: nothing to release, and the
   arrays keep their capacity (see {!capacity}). *)
let clear t = t.size <- 0
