(* Adjacency is a prepend-linked list of half-edges per node: [head.(u)]
   is the most recently added half-edge at [u] and [next] chains to the
   older ones, the same most-recent-first order a cons list gives. BFS
   visits neighbours in that order, so it fixes the orientation and with
   it the floating-point summation order. All evaluation work lives in
   arrays owned by the tree and reused across [clear]s. *)
type t = {
  mutable caps : float array;
  mutable head : int array;  (* node -> newest incident half-edge, or -1 *)
  mutable next : int array;  (* half-edge -> next older half-edge at the same node *)
  mutable dst : int array;  (* half-edge -> far node *)
  mutable res : float array;  (* half-edge -> edge resistance *)
  mutable n : int;
  mutable n_edges : int;
  (* evaluation work, as long as [caps] once evaluated *)
  mutable parent : int array;
  mutable parent_res : float array;
  mutable order : int array;  (* BFS order from the root *)
  mutable visited : bool array;
  mutable sub : float array;  (* subtree sums *)
  mutable m1 : float array;
  mutable m2 : float array;
}

let create () =
  {
    caps = Array.make 8 0.0;
    head = Array.make 8 (-1);
    next = Array.make 16 0;
    dst = Array.make 16 0;
    res = Array.make 16 0.0;
    n = 0;
    n_edges = 0;
    parent = [||];
    parent_res = [||];
    order = [||];
    visited = [||];
    sub = [||];
    m1 = [||];
    m2 = [||];
  }

let clear t =
  t.n <- 0;
  t.n_edges <- 0

let grow a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let add_node t ~cap =
  let id = t.n in
  let len = Array.length t.caps in
  if id >= len then begin
    t.caps <- grow t.caps (2 * len) 0.0;
    t.head <- grow t.head (2 * len) (-1)
  end;
  t.caps.(id) <- cap;
  t.head.(id) <- -1;
  t.n <- id + 1;
  id

let add_cap t ~node ~cap =
  assert (node < t.n);
  t.caps.(node) <- t.caps.(node) +. cap

let add_half_edge t e ~src ~dst ~res =
  t.dst.(e) <- dst;
  t.res.(e) <- res;
  t.next.(e) <- t.head.(src);
  t.head.(src) <- e

let add_edge t a b ~res =
  assert (a < t.n && b < t.n && a <> b);
  let e = 2 * t.n_edges in
  let len = Array.length t.dst in
  if e + 1 >= len then begin
    t.next <- grow t.next (2 * len) 0;
    t.dst <- grow t.dst (2 * len) 0;
    t.res <- grow t.res (2 * len) 0.0
  end;
  add_half_edge t e ~src:a ~dst:b ~res;
  add_half_edge t (e + 1) ~src:b ~dst:a ~res;
  t.n_edges <- t.n_edges + 1

let n_nodes t = t.n

let ensure_work t =
  let len = Array.length t.caps in
  if Array.length t.parent < len then begin
    t.parent <- Array.make len (-1);
    t.parent_res <- Array.make len 0.0;
    t.order <- Array.make len 0;
    t.visited <- Array.make len false;
    t.sub <- Array.make len 0.0;
    t.m1 <- Array.make len 0.0;
    t.m2 <- Array.make len 0.0
  end

(* Orient the undirected tree from [root] with BFS; nets can be deep
   chains, so no recursion anywhere below. *)
let orient t ~root =
  if root >= t.n then invalid_arg "Rc_tree.elmore: bad root";
  if t.n_edges <> t.n - 1 then invalid_arg "Rc_tree.elmore: not a tree";
  ensure_work t;
  Array.fill t.visited 0 t.n false;
  t.order.(0) <- root;
  t.visited.(root) <- true;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = t.order.(!head) in
    incr head;
    let e = ref t.head.(u) in
    while !e >= 0 do
      let v = t.dst.(!e) in
      if not t.visited.(v) then begin
        t.visited.(v) <- true;
        t.parent.(v) <- u;
        t.parent_res.(v) <- t.res.(!e);
        t.order.(!tail) <- v;
        incr tail
      end;
      e := t.next.(!e)
    done
  done;
  if !tail <> t.n then invalid_arg "Rc_tree.elmore: disconnected"

(* [acc.(v)] becomes the sum of [acc] over v's subtree. *)
let subtree_sum t acc =
  for i = t.n - 1 downto 1 do
    let v = t.order.(i) in
    let p = t.parent.(v) in
    acc.(p) <- acc.(p) +. acc.(v)
  done

(* [m.(v) = m.(parent) + R_edge * w.(v)] down the BFS order. *)
let accumulate t m w =
  m.(t.order.(0)) <- 0.0;
  for i = 1 to t.n - 1 do
    let v = t.order.(i) in
    m.(v) <- m.(t.parent.(v)) +. (t.parent_res.(v) *. w.(v))
  done

(* Elmore delay of every node into [t.m1]. *)
let eval_elmore t ~root =
  orient t ~root;
  Array.blit t.caps 0 t.sub 0 t.n;
  subtree_sum t t.sub;
  accumulate t t.m1 t.sub

let elmore_into t ~root ~nodes ~n ~out =
  eval_elmore t ~root;
  for i = 0 to n - 1 do
    out.(i) <- t.m1.(nodes.(i))
  done

let elmore t ~root =
  eval_elmore t ~root;
  Array.sub t.m1 0 t.n

(* Second moment via the standard RC-tree recurrence:
   m2(v) = m2(parent) + R_edge * sum_{k in subtree(v)} C_k * m1(k). *)
let moments t ~root =
  eval_elmore t ~root;
  for v = 0 to t.n - 1 do
    t.sub.(v) <- t.caps.(v) *. t.m1.(v)
  done;
  subtree_sum t t.sub;
  accumulate t t.m2 t.sub;
  (Array.sub t.m1 0 t.n, Array.sub t.m2 0 t.n)
