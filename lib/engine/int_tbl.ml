(* [Hashtbl.Make] over int keys.  The generic [Hashtbl] pays two C calls
   per operation ([caml_hash] on the key, [caml_compare] on each bucket
   entry); here the hash is a Fibonacci multiply whose top bits index
   the bucket array and equality is an integer compare: plain OCaml
   calls, no C call and no polymorphic compare. *)

include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* 2^64 / golden ratio, truncated to 62 bits and made odd: the product's
     high bits mix every bit of the key, so sequential and strided ids
     (request ids, tenant ids, multiples of a block size) spread evenly. *)
  let hash x = (x * 0x1E3779B97F4A7C15) lsr 31
end)
