type kind = Interactive | Batch

type t = {
  id : int;
  name : string;
  site : string;
  speed : float;
  mem_bytes : int;
  kind : kind;
}

let make ~id ~name ~site ~speed ~mem_bytes ~kind =
  if speed <= 0. then invalid_arg "Resource.make: speed must be positive";
  if mem_bytes <= 0 then invalid_arg "Resource.make: memory must be positive";
  { id; name; site; speed; mem_bytes; kind }

let min_client_memory = 128 * 1024 * 1024

let usable_memory t = int_of_float (0.6 *. float_of_int t.mem_bytes)
