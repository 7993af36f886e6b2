type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable size : int;
}

let create () = { keys = Array.make 16 0; vals = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t v =
  let cap = Array.length t.keys in
  if t.size >= cap then begin
    let keys = Array.make (cap * 2) 0 in
    Array.blit t.keys 0 keys 0 t.size;
    t.keys <- keys;
    let vals = Array.make (cap * 2) v in
    Array.blit t.vals 0 vals 0 t.size;
    t.vals <- vals
  end;
  if Array.length t.vals = 0 then t.vals <- Array.make (Array.length t.keys) v

let swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let v = t.vals.(i) in
  t.vals.(i) <- t.vals.(j);
  t.vals.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.keys.(parent) > t.keys.(i) then begin
      swap t parent i;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 in
  if left < t.size then begin
    let right = left + 1 in
    let best = if right < t.size && t.keys.(right) < t.keys.(left) then right else left in
    if t.keys.(best) < t.keys.(i) then begin
      swap t best i;
      sift_down t best
    end
  end

let add t priority v =
  grow t v;
  t.keys.(t.size) <- priority;
  t.vals.(t.size) <- v;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let take_min t =
  if t.size = 0 then invalid_arg "Pqueue.take_min: empty queue";
  let v = t.vals.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.keys.(0) <- t.keys.(t.size);
    t.vals.(0) <- t.vals.(t.size);
    sift_down t 0
  end;
  v

let pop_min t =
  if t.size = 0 then None
  else begin
    let k = t.keys.(0) in
    let v = take_min t in
    Some (k, v)
  end

let clear t = t.size <- 0
