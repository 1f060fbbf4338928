(** Discrete-event simulation kernel used by every ReFlex component.

    - {!Time}: immediate-int nanosecond virtual time
    - {!Prng}: deterministic splitmix64 random streams
    - {!Heap}: the event priority queue (default backend)
    - {!Wheel}: hierarchical timing-wheel event queue (alternate backend)
    - {!Sim}: the event loop
    - {!Resource}: single-server FIFO queues with two priorities
    - {!Int_tbl}: int-keyed hash tables for the request path *)

module Time = Time
module Prng = Prng
module Heap = Heap
module Wheel = Wheel
module Sim = Sim
module Resource = Resource
module Int_tbl = Int_tbl
