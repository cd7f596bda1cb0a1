type t = {
  mutable heap : int array;
  mutable sz : int;
  pos : int array; (* variable -> index in [heap], or -1 when absent *)
  key : float array; (* variable -> priority, owned by the caller *)
}

let create ~nvars ~key =
  { heap = Array.make (max 16 (nvars + 1)) 0; sz = 0; pos = Array.make (nvars + 1) (-1); key }

let clear t =
  t.sz <- 0;
  Array.fill t.pos 0 (Array.length t.pos) (-1)

let mem t v = t.pos.(v) >= 0

let is_empty t = t.sz = 0

let size t = t.sz

(* [key] is a [float array], so this compiles to an unboxed float compare *)
let gt t a b = t.key.(a) > t.key.(b)

let swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.pos.(b) <- i;
  t.pos.(a) <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if gt t t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.sz && gt t t.heap.(l) t.heap.(!best) then best := l;
  if r < t.sz && gt t t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    swap t i !best;
    sift_down t !best
  end

let insert t v =
  if not (mem t v) then begin
    if t.sz = Array.length t.heap then begin
      let heap = Array.make (2 * t.sz) 0 in
      Array.blit t.heap 0 heap 0 t.sz;
      t.heap <- heap
    end;
    t.heap.(t.sz) <- v;
    t.pos.(v) <- t.sz;
    t.sz <- t.sz + 1;
    sift_up t (t.sz - 1)
  end

let remove_max t =
  if t.sz = 0 then raise Not_found;
  let top = t.heap.(0) in
  t.sz <- t.sz - 1;
  t.pos.(top) <- -1;
  if t.sz > 0 then begin
    let moved = t.heap.(t.sz) in
    t.heap.(0) <- moved;
    t.pos.(moved) <- 0;
    sift_down t 0
  end;
  top

let increase t v =
  let i = t.pos.(v) in
  if i >= 0 then sift_up t i

let rebuild t =
  for i = (t.sz / 2) - 1 downto 0 do
    sift_down t i
  done
