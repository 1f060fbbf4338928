(* Binary min-heap in structure-of-arrays layout: the (time, seq) keys and
   the payloads live in three parallel arrays instead of one array of
   boxed [entry] records.  [Time.t] is a private [int], so the key arrays
   are plain int arrays: a push or pop allocates nothing and stores
   into them skip the write barrier.  Sift-up/-down move array cells,
   never boxes.

   Sift operations are hole-lifting: the moving element is held in
   locals while parents/children shift into the hole, so each level
   costs one store per array rather than a three-array swap. *)

type 'a t = {
  mutable times : Time.t array;
  mutable seqs : int array;
  mutable values : 'a array;
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

(* Cold path: double the key/payload arrays (or re-arm the payload array
   after a [clear], which drops it to release references while the key
   arrays keep their capacity).  [v] seeds the fresh payload slots — it
   is the value being pushed, so no foreign dummy is pinned. *)
let grow t v =
  let cap = Array.length t.times in
  if t.size = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let ntimes = Array.make ncap Time.zero in
    Array.blit t.times 0 ntimes 0 t.size;
    t.times <- ntimes;
    let nseqs = Array.make ncap 0 in
    Array.blit t.seqs 0 nseqs 0 t.size;
    t.seqs <- nseqs;
    let nvalues = Array.make ncap v in
    Array.blit t.values 0 nvalues 0 t.size;
    t.values <- nvalues
  end
  else if Array.length t.values < cap then begin
    (* First push after [clear]: key arrays kept their capacity, the
       payload array was dropped; re-make it at full capacity in one
       step. *)
    let nvalues = Array.make cap v in
    Array.blit t.values 0 nvalues 0 t.size;
    t.values <- nvalues
  end

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
  grow t v;
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
    (* Blank the vacated slot with a duplicate of a live payload so the
       heap does not pin the removed element (space leak on long runs).
       When the heap drains to empty, slot 0 still references the
       returned element until the next push overwrites it — bounded to
       one entry. *)
    t.values.(n) <- lv;
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

let clear t =
  (* Keep the numeric key arrays (capacity survives, see {!capacity});
     drop only the payload array so cleared entries cannot pin their
     payloads.  The next push re-makes it at full capacity in one step
     (see [grow]). *)
  t.values <- [||];
  t.size <- 0
