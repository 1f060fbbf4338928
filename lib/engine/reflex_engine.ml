(** Discrete-event simulation kernel used by every ReFlex component.

    - {!Time}: immediate-int nanosecond virtual time
    - {!Prng}: deterministic splitmix64 random streams
    - {!Heap}: the event priority queue (default backend)
    - {!Wheel}: hierarchical timing-wheel event queue (alternate backend)
    - {!Sim}: the event loop
    - {!Resource}: multi-server FIFO queues with two priorities *)

module Time = Time
module Prng = Prng
module Heap = Heap
module Wheel = Wheel
module Sim = Sim
module Resource = Resource
