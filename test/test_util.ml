(* Helpers shared by the suites. *)

open Reflex_engine

(* Simulated time as an Alcotest testable, printed as raw nanoseconds so a
   failure shows the exact values compared. *)
let time = Alcotest.testable (fun fmt (t : Time.t) -> Format.fprintf fmt "%dns" (t :> int)) Time.equal

(* Minor-heap words allocated by [f ()], net of the cost of reading the
   counter itself (each [Gc.minor_words] read boxes its float result).
   Allocation counts are deterministic, so tests can pin them exactly. *)
let minor_words f =
  let probe () =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let overhead = probe () in
  let a = Gc.minor_words () in
  f ();
  let b = Gc.minor_words () in
  b -. a -. overhead
