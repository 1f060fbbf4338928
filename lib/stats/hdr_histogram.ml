(* Buckets: values < 2^sub_bits land in a linear region with exact
   resolution; above that, each power-of-two range is split into
   2^sub_bits sub-buckets, giving bounded relative error. *)

let sub_bits = 6
let sub_count = 1 lsl sub_bits (* 64 *)
let max_exponent = 62

type t = {
  counts : int array; (* (exponent - sub_bits + 1) * sub_count cells *)
  mutable total : int;
  sum : float array; (* one cell: a flat float store, where a mutable float field would box *)
  mutable min_v : int;
  mutable max_v : int;
}

let n_cells = (max_exponent - sub_bits + 1) * sub_count

let create () =
  { counts = Array.make n_cells 0; total = 0; sum = [| 0.0 |]; min_v = max_int; max_v = 0 }

(* exponent = position of the highest set bit; lives at toplevel so the
   per-record path does not allocate a closure for it *)
let rec msb acc x = if x <= 1 then acc else msb (acc + 1) (x lsr 1)

(* Index of the bucket containing [v]: immediate-int bucket math, so the
   per-request latency-record path allocates nothing. *)
let index_of v =
  if v < sub_count then v
  else begin
    let e = msb 0 v in
    let shift = e - sub_bits in
    let sub = (v lsr shift) land (sub_count - 1) in
    (((e - sub_bits) + 1) * sub_count) + sub
  end

(* Upper edge (inclusive) of bucket [i]: the value reported for percentiles. *)
let value_of i =
  if i < sub_count then i
  else begin
    let range = (i / sub_count) - 1 in
    let sub = i mod sub_count in
    let e = range + sub_bits in
    let base = 1 lsl e in
    let step = 1 lsl (e - sub_bits) in
    (* upper edge of sub-bucket: base + (sub+1)*step - 1; the top
       bucket's edge is 2^62 - 1 = max_int, so this never wraps *)
    base + ((sub + 1) * step) - 1
  end

let record_n t v n =
  if v < 0 then invalid_arg "Hdr_histogram.record: negative";
  if n < 0 then invalid_arg "Hdr_histogram.record_n: negative count";
  if n > 0 then begin
    let i = index_of v in
    t.counts.(i) <- t.counts.(i) + n;
    t.total <- t.total + n;
    t.sum.(0) <- t.sum.(0) +. (float_of_int v *. float_of_int n);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let record t v = record_n t v 1
let count t = t.total

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Hdr_histogram.percentile: out of range";
  if t.total = 0 then 0 (* defined: empty histogram reports 0 for every p *)
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.total)) in
    let rank = if rank < 1 then 1 else rank in
    let acc = ref 0 in
    let result = ref t.max_v in
    (try
       for i = 0 to n_cells - 1 do
         acc := !acc + t.counts.(i);
         if !acc >= rank then begin
           result := value_of i;
           raise Exit
         end
       done
     with Exit -> ());
    (* Clamp into [min_v, max_v]: bucket edges never over- or under-shoot
       the observed range, so a single-sample histogram reports exactly
       that sample for every percentile. *)
    if !result > t.max_v then t.max_v else if !result < t.min_v then t.min_v else !result
  end

let mean t = if t.total = 0 then 0.0 else t.sum.(0) /. float_of_int t.total
let min_value t = if t.total = 0 then 0 else t.min_v
let max_value t = t.max_v

(* Lower edge (inclusive) of bucket [i] — the counterpart of [value_of]. *)
let low_value_of i =
  if i < sub_count then i
  else begin
    let range = (i / sub_count) - 1 in
    let sub = i mod sub_count in
    let e = range + sub_bits in
    (1 lsl e) + (sub * (1 lsl (e - sub_bits)))
  end

let copy t =
  { counts = Array.copy t.counts; total = t.total; sum = Array.copy t.sum; min_v = t.min_v; max_v = t.max_v }

(* Snapshot delta: the histogram of exactly the values recorded into [t]
   after [since] was captured ([since] must be an earlier snapshot of the
   same recording stream, i.e. pointwise [since.counts <= t.counts]).
   Bucket counts and totals are exact; the delta's min/max are only known
   to bucket resolution, so they are reconstructed from the occupied
   bucket edges and clamped into [t]'s observed range (delta values are a
   subset of [t]'s values). *)
let diff t ~since =
  let d = create () in
  let lo = ref max_int in
  let hi = ref 0 in
  let total = ref 0 in
  for i = 0 to n_cells - 1 do
    let c = t.counts.(i) - since.counts.(i) in
    if c < 0 then
      invalid_arg "Hdr_histogram.diff: since is not an earlier snapshot of this histogram";
    if c > 0 then begin
      d.counts.(i) <- c;
      total := !total + c;
      let l = low_value_of i in
      if l < !lo then lo := l;
      let h = value_of i in
      if h > !hi then hi := h
    end
  done;
  d.total <- !total;
  if !total > 0 then begin
    d.sum.(0) <- Float.max 0.0 (t.sum.(0) -. since.sum.(0));
    d.min_v <- Int.max !lo t.min_v;
    d.max_v <- Int.min !hi t.max_v
  end;
  d

(* Recorded values strictly above the bucket containing [v]: counts are
   bucketed, so the answer is exact at bucket granularity (values sharing
   [v]'s bucket are counted as "not above" — a relative error bounded by
   the bucket width, ~1.5% with 6 sub-bucket bits, and exact for
   [v < 64]). *)
let count_above t v =
  if v < 0 then t.total
  else begin
    let start = index_of v + 1 in
    let acc = ref 0 in
    for i = start to n_cells - 1 do
      acc := !acc + t.counts.(i)
    done;
    !acc
  end

let merge ~dst ~src =
  for i = 0 to n_cells - 1 do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
  done;
  dst.total <- dst.total + src.total;
  dst.sum.(0) <- dst.sum.(0) +. src.sum.(0);
  if src.min_v < dst.min_v then dst.min_v <- src.min_v;
  if src.max_v > dst.max_v then dst.max_v <- src.max_v

let reset t =
  Array.fill t.counts 0 n_cells 0;
  t.total <- 0;
  t.sum.(0) <- 0.0;
  t.min_v <- max_int;
  t.max_v <- 0

let percentile_us t p = float_of_int (percentile t p) /. 1e3
let mean_us t = mean t /. 1e3
