(* R5 fixtures: mutable state created outside a worker closure and
   mutated inside it races across the pool's domains. The two "racy"
   functions below must each produce one finding; the two guards
   (a ref created inside the closure, an Atomic counter) must stay
   finding-free. *)

module Parallel = Crowdmax_util.Parallel

(* BAD: a shared ref captured and mutated by every pool domain. *)
let racy_sum pool xs =
  let hits = ref 0 in
  let ys =
    Parallel.map pool
      (fun x ->
        incr hits;
        x + 1)
      xs
  in
  (ys, !hits)

(* BAD: a let-bound worker function capturing a shared array — the
   checker must chase the binding to find the capture. *)
let racy_tally pool n =
  let tallies = Array.make 8 0 in
  let worker i =
    tallies.(i mod 8) <- tallies.(i mod 8) + 1;
    i
  in
  ignore (Parallel.map pool worker (Array.init n Fun.id));
  tallies

(* OK: the ref is created inside the closure — domain-local by
   construction. *)
let local_ref_ok pool xs =
  Parallel.map pool
    (fun x ->
      let acc = ref 0 in
      for i = 1 to x do
        acc := !acc + i
      done;
      !acc)
    xs

(* OK: Atomic.t is the sanctioned cross-domain primitive. *)
let atomic_ok pool n =
  let counter = Atomic.make 0 in
  ignore (Parallel.map pool (fun i ->
      Atomic.incr counter;
      i) (Array.init n Fun.id));
  Atomic.get counter
