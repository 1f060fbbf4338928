type t = int

let zero = 0
let infinity = max_int
external ns : int -> t = "%identity"
let us x = x * 1_000
let ms x = x * 1_000_000
let sec x = x * 1_000_000_000
let of_float_ns x = int_of_float (Float.round x)
let of_float_us x = of_float_ns (x *. 1e3)
let of_float_sec x = of_float_ns (x *. 1e9)
let to_float_ns t = float_of_int t
let to_float_us t = float_of_int t /. 1e3
let to_float_ms t = float_of_int t /. 1e6
let to_float_sec t = float_of_int t /. 1e9
external add : t -> t -> t = "%addint"
external sub : t -> t -> t = "%subint"
external diff : t -> t -> t = "%subint"

let scale t x = of_float_ns (float_of_int t *. x)

let max (a : int) b = if a >= b then a else b
let min (a : int) b = if a <= b then a else b

(* At [t = int] these primitives specialise to integer compares, here
   and (through the same declarations in time.mli) at every caller. *)
external compare : t -> t -> int = "%compare"
external ( < ) : t -> t -> bool = "%lessthan"
external ( <= ) : t -> t -> bool = "%lessequal"
external ( > ) : t -> t -> bool = "%greaterthan"
external ( >= ) : t -> t -> bool = "%greaterequal"
external equal : t -> t -> bool = "%equal"

let pp fmt t =
  let f = float_of_int t in
  let open Stdlib in
  if Float.abs f < 1e3 then Format.fprintf fmt "%dns" t
  else if Float.abs f < 1e6 then Format.fprintf fmt "%.2fus" (f /. 1e3)
  else if Float.abs f < 1e9 then Format.fprintf fmt "%.2fms" (f /. 1e6)
  else Format.fprintf fmt "%.3fs" (f /. 1e9)

let to_string t = Format.asprintf "%a" pp t
