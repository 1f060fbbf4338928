(* The host clock and the reference kernel.

   Host time is process CPU time: a span of it does not grow while the
   process is descheduled, so a neighbour that preempts the benchmark
   for a few milliseconds does not inflate the slices it lands on.

   CPU time still drifts by 15–40% over seconds to minutes as
   neighbours load the same cores and caches, and every simulator
   figure drifts with it.  This kernel slows down with the same
   contention, so the harness runs it between groups of slices and
   expresses host time in reference seconds: measured CPU seconds
   scaled by the kernel's nominal over its measured speed.  It is fixed
   and allocation-free: read-modify-write steps at random slots of one
   region of a 16 MB off-heap ring (contention for the caches and
   memory), then a branchy integer hash loop (contention for the core
   itself).  Each sample walks the next of 16 regions, so between two
   walks of a region the kernel itself has touched about 6 MB of the
   other 15, more than a core's private caches hold: every walk starts
   with its region out of them, whatever the simulator did in between.
   What the simulator leaves in the caches therefore does not reach the
   sample; only contention does. *)

open Bigarray

(* Process CPU time in nanoseconds (getrusage, microsecond grain). *)
let cpu_ns () = int_of_float (Sys.time () *. 1e9)

let region_bits = 17
let regions = 16

(* Off the OCaml heap, so it does not count in the benchmark's heap. *)
let ring : (int, int_elt, c_layout) Array1.t =
  let a = Array1.create int c_layout (regions lsl region_bits) in
  Array1.fill a 0;
  a

let next_region = ref 0
let steps = 8_000

(* Nominal cost of one step (one ring update and one hash round):
   roughly its typical cost on a shared 2-core 2.1 GHz x86-64 host.  It
   only fixes the unit. *)
let nominal_ns_per_step = 22.0

let kernel () =
  let base = !next_region lsl region_bits in
  next_region := (!next_region + 1) mod regions;
  let h = ref 0x12345 in
  for i = 1 to steps do
    h := (!h lxor (!h lsr 7)) * 0x2545F491 land 0x3fffffff;
    let k = base + (!h land ((1 lsl region_bits) - 1)) in
    Array1.unsafe_set ring k (Array1.unsafe_get ring k + i)
  done;
  let b = ref 0 in
  for i = 1 to steps do
    h := (!h lxor (!h lsr 7)) * 0x2545F491 land 0x3fffffff;
    if !h land 3 = 0 then b := !b + i else b := !b lxor !h
  done;
  !h + !b

(* Measured nanoseconds per step, now. *)
let sample () =
  let s = cpu_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  float_of_int (cpu_ns () - s) /. float_of_int steps

(* Under contention the simulator slows by about the square of the
   kernel's slowdown.  Fitted over the four workloads on a shared 2-core
   host (about 140 repetitions in 12 runs), the per-repetition
   coefficient of variation of scaled CPU time was 0.03–0.05 with this
   exponent, 0.05–0.10 with exponent 1 and 0.11–0.19 unscaled. *)
let sensitivity = 2.0

(* Scale for host time spent between two samples [a] and [b]. *)
let factor a b = (nominal_ns_per_step /. ((a +. b) /. 2.0)) ** sensitivity
