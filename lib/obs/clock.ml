let now_ns () = Int64.to_int (Monotonic_clock.now ())

let origin = now_ns ()

let seconds ns = float_of_int ns *. 1e-9

let now () = seconds (now_ns () - origin)
