type t = int

let zero = 0
let of_ns ns = ns
let to_ns t = t
let of_us us = int_of_float (Float.round (us *. 1000.))
let to_us t = float_of_int t /. 1000.
let add = ( + )
let diff later earlier = later - earlier
let max = Stdlib.max
let compare = Stdlib.compare
