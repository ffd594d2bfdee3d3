open Crowdmax_util
module Model = Crowdmax_latency.Model
module Metrics = Crowdmax_obs.Metrics
module T = Crowdmax_tournament.Tournament

type solution = {
  sequence : int list;
  allocation : Allocation.t;
  latency : float;
  questions_used : int;
  states_visited : int;
}

let clamp_budget c q = min q (Ints.choose2 c)

(* A non-finite L(q) — e.g. a malformed latency model that slipped past
   construction — would poison every DP value it touches and surface
   only as a nonsense plan; fail at the first evaluation instead. *)
let checked_latency_of fn latency q =
  let l = Model.eval latency q in
  if not (Float.is_finite l) then
    invalid_arg (Printf.sprintf "Tdp.%s: L(%d) = %g is not finite" fn q l);
  l

(* The solver's working state, reusable across solves (the plan cache).

   Everything here is a pure function of (model, capacity) alone:
   - [ub]/[ub_next]: unconstrained optima, ub.(c) = OL(choose2 c, c);
   - [ch2]: choose2 memo; [lq]: L by batch size, filled lazily by the
     table build for non-linear models — every batch size the DP can
     touch appears as some Q(c, c') the build scans, so the DP reads it
     with a plain load. Linear models never allocate [lq]: L is three
     flops, cheaper inline than a 4 MB table ([lq] stays [||]).
     Q(c, c') itself is never tabulated — scans step it linearly within
     constant-quotient runs and point lookups are one division — so a
     rebuild allocates only O(c0) words;
   - the arena: open-addressed parallel arrays over packed state keys
     [(c lsl qbits) lor q] (0 = empty slot, valid because memoized
     states have c >= 3 and hence a positive key). Values live in an
     unboxed float array ([lat]) and an int array ([nxt]) — no tuple or
     option allocation on the probe path;
   - the work stack: frames of the explicit DFS that replaces the
     recursive [ol], depth <= capacity.

   Budget-constrained DP states OL(c, q) do not depend on the instance's
   own c0 (only on the model), so a cache built for capacity [k] is
   valid for any instance with c0 <= k — the invalidation rule lives in
   [prepare] below. *)
type cache = {
  mutable model : Model.t option;  (* None = empty, must rebuild *)
  mutable capacity : int;  (* largest c0 the tables cover *)
  mutable qbits : int;  (* low bits of a packed key hold q *)
  mutable ub : float array;
  mutable ub_next : int array;
  mutable ch2 : int array;
  mutable lq : float array;  (* [||] for linear models: L is inlined *)
  mutable keys : int array;
  mutable lat : float array;
  mutable nxt : int array;
  mutable mask : int;
  mutable count : int;  (* settled states in the arena *)
  mutable st_c : int array;
  mutable st_q : int array;
  mutable st_i : int array;  (* candidate c' a suspended frame waits on *)
  mutable st_best : float array;
  mutable st_next : int array;
  mutable reuses : int;
  mutable rebuilds : int;
  mutable mono : bool;  (* ub non-decreasing on [1, capacity]? *)
}

(* Multiplicative hashing for the open-addressed arena. The product's
   low bits depend only on the key's low bits, which in a packed
   [(c lsl qbits) lor q] key are [q] alone: a masked product would send
   every state with the same remaining budget into one cluster. Folding
   the high half in makes the home slot depend on [c] too. *)
let[@inline] home_slot mask key =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land mask
[@@alloc_free]

(* Linear probing under [land mask]. The probe is a while loop over an
   int slot index — a local [rec probe] would capture
   [keys]/[mask]/[key] in a closure on every memo probe. *)
let find_slot keys mask key =
  let i = ref (home_slot mask key) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> key && !k <> 0 do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  !i
[@@alloc_free]

module Cache = struct
  type t = cache

  let create () =
    {
      model = None;
      capacity = -1;
      qbits = 1;
      ub = [||];
      ub_next = [||];
      ch2 = [||];
      lq = [||];
      keys = [||];
      lat = [||];
      nxt = [||];
      mask = 0;
      count = 0;
      st_c = [||];
      st_q = [||];
      st_i = [||];
      st_best = [||];
      st_next = [||];
      reuses = 0;
      rebuilds = 0;
      mono = true;
    }

  let clear t =
    t.model <- None;
    t.capacity <- -1;
    t.ub <- [||];
    t.ub_next <- [||];
    t.ch2 <- [||];
    t.lq <- [||];
    t.keys <- [||];
    t.lat <- [||];
    t.nxt <- [||];
    t.mask <- 0;
    t.count <- 0;
    t.st_c <- [||];
    t.st_q <- [||];
    t.st_i <- [||];
    t.st_best <- [||];
    t.st_next <- [||];
    t.reuses <- 0;
    t.rebuilds <- 0;
    t.mono <- true

  let hits t = t.reuses
  let misses t = t.rebuilds
  let states_settled t = t.count
  let capacity t = max 0 t.capacity

  (* A diagnostic, never on the solve path: one scan of the arena. *)
  let mean_displacement t =
    let total = ref 0 in
    Array.iteri
      (fun s k ->
        if k <> 0 then total := !total + ((s - home_slot t.mask k) land t.mask))
      t.keys;
    if t.count = 0 then 0.0 else float_of_int !total /. float_of_int t.count
end

let grow t =
  let okeys = t.keys and olat = t.lat and onxt = t.nxt in
  let cap = 2 * Array.length okeys in
  let keys = Array.make cap 0 in
  let lat = Array.make cap 0.0 in
  let nxt = Array.make cap 0 in
  let mask = cap - 1 in
  Array.iteri
    (fun i k ->
      if k <> 0 then begin
        let s = find_slot keys mask k in
        Array.unsafe_set keys s k;
        Array.unsafe_set lat s (Array.unsafe_get olat i);
        Array.unsafe_set nxt s (Array.unsafe_get onxt i)
      end)
    okeys;
  t.keys <- keys;
  t.lat <- lat;
  t.nxt <- nxt;
  t.mask <- mask

(* Smallest bit width that can hold every value in [0, n]. *)
let bits_for n =
  let k = ref 1 in
  while n lsr !k <> 0 do
    incr k
  done;
  !k

let initial_arena = 4096

let rebuild_tables t latency_of mdl c0 =
  let qmax = Ints.choose2 c0 in
  let qbits = bits_for (max 1 (qmax - 1)) in
  if qbits + bits_for c0 > 62 then
    invalid_arg "Tdp.solve: collection too large to pack planner state keys";
  t.model <- Some mdl;
  t.capacity <- c0;
  t.qbits <- qbits;
  let ch2 = Array.make (c0 + 1) 0 in
  for c = 2 to c0 do
    ch2.(c) <- Ints.choose2 c
  done;
  t.ch2 <- ch2;
  let ub = Array.make (c0 + 1) 0.0 in
  let ub_next = Array.make (c0 + 1) 1 in
  t.ub <- ub;
  t.ub_next <- ub_next;
  (* Linear models — the paper's fitted MTurk function and the common
     experimental case — evaluate L inline with the exact float
     expression [Model.eval] uses ([delta +. (alpha *. float_of_int q)]),
     so every value is bit-identical to a memoized evaluation while the
     scan stays pure arithmetic (no lq table, no loads). Finiteness
     needs checking only at the endpoints: a linear function's interior
     values lie between L(0) and L(qmax), and NaN parameters surface at
     both. Other models memoize L into [lq] (NaN = unevaluated) during
     the scan, which visits every batch size the DP can later touch. *)
  let linear_params =
    match mdl with
    | Model.Linear { delta; alpha } ->
        ignore (latency_of 0 : float);
        ignore (latency_of qmax : float);
        Some (delta, alpha)
    | _ -> None
  in
  let lq =
    match linear_params with
    | Some _ -> [||]
    | None -> Array.make (qmax + 1) Float.nan
  in
  t.lq <- lq;
  (* Run-level pruning below is sound only while [ub] is non-decreasing
     on the prefix built so far and L is non-decreasing in q (alpha >= 0
     for a linear model — the theory's standing assumption, but cheap to
     refuse rather than assume). Verified row by row; a violation just
     falls back to the full scan, never to a wrong answer. *)
  let mono = ref true in
  (* Unconstrained optima: ub.(c) is the best latency reachable from [c]
     candidates when the budget never binds (a budget of choose2 c is as
     good as infinite). The scan covers every (c, c') pair the DP can
     ever take, so for non-linear models it also fills [lq] completely. *)
  for c = 2 to c0 do
    ((* Scan c' = 1..c-1 in runs of constant quotient v = c / c'. Within
       a run, Q(c, c') = r * choose2 (v+1) + (c' - r) * choose2 v with
       r = c - v * c', which simplifies to c*v + c' * (choose2 v - v*v)
       — linear in c', so the whole scan needs one division per run
       (O(sqrt c) total) instead of the div/mod pair per (c, c') that
       dominates the seed solver's table build. Same c' order, same
       integers, same float ops: [ub] is bit-identical to the seed's. *)
    match linear_params with
    | Some (delta, alpha) ->
        (* Local float refs that never escape compile to unboxed
           registers, so the scan allocates nothing per candidate (a
           recursive form would box its float arguments at every call
           in the dev profile). Runs chain left to right under the same
           strict <, so value and argmin match the one-pass scan
           exactly.

           Run pruning: within a run Q is decreasing in c' (the step
           -v(v+1)/2 is negative), so with L non-decreasing and [ub]
           non-decreasing every candidate is at least
           L(Q(c, hi)) +. ub.(run start). When that bound cannot beat
           the incumbent under strict <, the whole run — half of all
           pairs for v = 1 alone — is skipped by one comparison,
           without touching the minimum's value or its first argmin. *)
        let prune = !mono && alpha >= 0.0 in
        (let best = ref infinity and bnext = ref 1 in
         let c' = ref 1 in
         while !c' <= c - 1 do
           let lo = !c' in
           let v = c / lo in
           let hi = min (c / v) (c - 1) in
           let step = Array.unsafe_get ch2 v - (v * v) in
           if
             not
               (prune
               && delta
                  +. (alpha *. float_of_int ((c * v) + (hi * step)))
                  +. Array.unsafe_get ub lo
                  >= !best)
           then begin
             let q = ref ((c * v) + (lo * step)) in
             for i = lo to hi do
               let cand =
                 delta +. (alpha *. float_of_int !q) +. Array.unsafe_get ub i
               in
               if cand < !best then begin
                 best := cand;
                 bnext := i
               end;
               q := !q + step
             done
           end;
           c' := hi + 1
         done;
         ub.(c) <- !best;
         ub_next.(c) <- !bnext)
        [@alloc_free]
    | None ->
        let best = ref infinity and best_next = ref 1 in
        let c' = ref 1 in
        while !c' <= c - 1 do
          let v = c / !c' in
          let hi = min (c / v) (c - 1) in
          let step = Array.unsafe_get ch2 v - (v * v) in
          let q = ref ((c * v) + (!c' * step)) in
          for i = !c' to hi do
            let qv = !q in
            let l =
              let x = Array.unsafe_get lq qv in
              if Float.is_nan x then begin
                let x = latency_of qv in
                Array.unsafe_set lq qv x;
                x
              end
              else x
            in
            let cand = l +. Array.unsafe_get ub i in
            if cand < !best then begin
              best := cand;
              best_next := i
            end;
            q := qv + step
          done;
          c' := hi + 1
        done;
        ub.(c) <- !best;
        ub_next.(c) <- !best_next);
    if ub.(c) < ub.(c - 1) then mono := false
  done;
  t.mono <- !mono;
  t.keys <- Array.make initial_arena 0;
  t.lat <- Array.make initial_arena 0.0;
  t.nxt <- Array.make initial_arena 0;
  t.mask <- initial_arena - 1;
  t.count <- 0;
  t.st_c <- Array.make (c0 + 1) 0;
  t.st_q <- Array.make (c0 + 1) 0;
  t.st_i <- Array.make (c0 + 1) 0;
  t.st_best <- Array.make (c0 + 1) 0.0;
  t.st_next <- Array.make (c0 + 1) 0

(* Invalidation rule: a cache is reusable iff the latency model is equal
   (Model.equal — typed structural equality, physical for Custom) and
   the instance fits under the capacity the tables were built for.
   Constrained DP states and the ub tables depend only on the model, not
   on the instance's c0, so solves at any c0 <= capacity (a budget
   sweep, Adaptive's shrinking replans) reuse everything; a model change
   or a larger c0 rebuilds from scratch. *)
let prepare t latency_of mdl c0 =
  let reusable =
    match t.model with
    | Some m -> c0 <= t.capacity && Model.equal m mdl
    | None -> false
  in
  if reusable then t.reuses <- t.reuses + 1
  else begin
    t.rebuilds <- t.rebuilds + 1;
    rebuild_tables t latency_of mdl c0
  end;
  reusable

let solve ?(metrics = Metrics.disabled) ?cache (problem : Problem.t) =
  let plan_span = Metrics.span metrics ~section:"planner" "plan_seconds" in
  Metrics.time plan_span @@ fun () ->
  (* Planner counters are pure functions of the problem (no randomness,
     no clock), so they are part of the deterministic metrics document.
     Memo hits include the sequence-reconstruction replay. *)
  let m_hits = Metrics.counter metrics ~section:"planner" "memo_hits" in
  let m_misses = Metrics.counter metrics ~section:"planner" "memo_misses" in
  let m_pruned = Metrics.counter metrics ~section:"planner" "ub_pruned_branches" in
  let m_cache_hits = Metrics.counter metrics ~section:"planner" "plan_cache_hits" in
  let m_cache_misses =
    Metrics.counter metrics ~section:"planner" "plan_cache_misses"
  in
  let latency_of = checked_latency_of "solve" problem.Problem.latency in
  let c0 = problem.Problem.elements in
  let b = problem.Problem.budget in
  let t, shared =
    match cache with Some t -> (t, true) | None -> (Cache.create (), false)
  in
  let reused = prepare t latency_of problem.Problem.latency c0 in
  (* Cache events are only meaningful for a caller-held cache; a private
     per-solve cache always rebuilds and records nothing. *)
  if shared then
    if reused then Metrics.incr m_cache_hits else Metrics.incr m_cache_misses;
  let count0 = t.count in
  let hits = ref 0 and misses = ref 0 and pruned = ref 0 in
  let qbits = t.qbits in
  let ub = t.ub and ch2 = t.ch2 and lq = t.lq in
  (* Linear models evaluate L inline (the exact [Model.eval] expression,
     so bit-identical to a memoized value); other models read the [lq]
     table the build filled. The branch is perfectly predicted — one
     direction for the whole solve. *)
  let lin, lin_d, lin_a =
    match problem.Problem.latency with
    | Model.Linear { delta; alpha } -> (true, delta, alpha)
    | _ -> (false, 0.0, 0.0)
  in
  (* Run-level pruning in the DP scan needs the same preconditions as
     the table build's: L non-decreasing (alpha >= 0) and ub
     non-decreasing (verified during the build). *)
  let dp_prune = lin && lin_a >= 0.0 && t.mono in
  let st_c = t.st_c and st_q = t.st_q and st_i = t.st_i in
  let st_best = t.st_best and st_next = t.st_next in
  let sp = ref 0 in
  (* [ret_lat] escapes into [run_stack], so a float [ref] cell would not
     be unboxed and every settled state would box a float on the store;
     a one-element float array stores unboxed. Int/bool refs only store
     immediates, so escaping is harmless for them. *)
  let ret_lat = Array.make 1 0.0 in
  let ret_next = ref 0 in
  let returning = ref false in
  (* The explicit-stack DFS: frames visit candidates c' = 1..c-1 in the
     exact order, with the exact guards and strict-< tie-breaks, of the
     recursive formulation, so values, decisions and counters are
     bit-identical to it. A frame suspends when it needs an unsettled
     child state; a settled frame writes the arena and resumes its
     parent through [ret_lat]/[ret_next]. *)
  let run_stack () =
    while !sp > 0 do
      let f = !sp - 1 in
      let c = Array.unsafe_get st_c f in
      let q = Array.unsafe_get st_q f in
      let best = ref (Array.unsafe_get st_best f) in
      let bnext = ref (Array.unsafe_get st_next f) in
      let i = ref 1 in
      if !returning then begin
        (* the child the frame suspended on just settled *)
        let c' = Array.unsafe_get st_i f in
        let qv = T.questions c c' in
        let round =
          if lin then lin_d +. (lin_a *. float_of_int qv)
          else Array.unsafe_get lq qv
        in
        let total = round +. Array.unsafe_get ret_lat 0 in
        if total < !best then begin
          best := total;
          bnext := c'
        end;
        returning := false;
        i := c' + 1
      end;
      let suspended = ref false in
      (* The candidate scan steps Q(c, c') through constant-quotient
         runs, exactly like the table build: one division per run, an
         add per candidate, no Q table. A suspension exits mid-run; the
         resume recomputes the run containing the next candidate. *)
      while (not !suspended) && !i < c do
        let lo = !i in
        let v = c / lo in
        let hi = min (c / v) (c - 1) in
        let step = Array.unsafe_get ch2 v - (v * v) in
        let qlo = (c * v) + (lo * step) in
        let qhi = qlo + ((hi - lo) * step) in
        (* g(i) = rem_i - (c' - 1) is affine and non-decreasing in i
           (slope -step - 1 >= 0), so if the run's last candidate fails
           the Theorem 1 guard, every candidate does: the whole run is
           infeasible — skip it, exactly as the per-pair scan would
           (no value, no counter). *)
        if q - qhi - hi + 1 < 0 then i := hi + 1
        else if
          dp_prune
          && lin_d +. (lin_a *. float_of_int qhi) +. Array.unsafe_get ub lo
             >= !best
        then begin
          (* L(Q) is minimal at hi and ub at lo, so every guard-passing
             candidate in the run has round +. ub.(c') >= this bound
             >= best: the per-pair scan would prune each one. Count
             them in closed form so [ub_pruned_branches] stays
             bit-identical to the unskipped scan. *)
          let g_lo = q - qlo - lo + 1 in
          let s = -step - 1 in
          let cnt =
            if s = 0 || g_lo >= 0 then hi - lo + 1
            else hi - (lo + ((-g_lo + s - 1) / s)) + 1
          in
          pruned := !pruned + cnt;
          i := hi + 1
        end
        else begin
        let qrun = ref qlo in
        while (not !suspended) && !i <= hi do
          let c' = !i in
          let qq = !qrun in
          let rem = q - qq in
          (* Theorem 1: the tail needs at least c' - 1 questions; and no
             tail can beat its unconstrained optimum. *)
          if rem >= c' - 1 then begin
            let round =
              if lin then lin_d +. (lin_a *. float_of_int qq)
              else Array.unsafe_get lq qq
            in
            let bound = Array.unsafe_get ub c' in
            if round +. bound < !best then begin
              if c' = 1 || rem >= Array.unsafe_get ch2 c' then begin
                (* the tail resolves through ub (0 for c' = 1); the guard
                   just established round +. ub.(c') < best *)
                best := round +. bound;
                bnext := c'
              end
              else begin
                let k = (c' lsl qbits) lor rem in
                let s = find_slot t.keys t.mask k in
                if Array.unsafe_get t.keys s = k then begin
                  incr hits;
                  let total = round +. Array.unsafe_get t.lat s in
                  if total < !best then begin
                    best := total;
                    bnext := c'
                  end
                end
                else begin
                  incr misses;
                  Array.unsafe_set st_i f c';
                  Array.unsafe_set st_best f !best;
                  Array.unsafe_set st_next f !bnext;
                  let g = !sp in
                  Array.unsafe_set st_c g c';
                  Array.unsafe_set st_q g rem;
                  Array.unsafe_set st_best g infinity;
                  Array.unsafe_set st_next g 0;
                  sp := g + 1;
                  suspended := true
                end
              end
            end
            else incr pruned
          end;
          qrun := qq + step;
          incr i
        done
        end
      done;
      if not !suspended then begin
        (* frame complete: settle the state and resume the parent *)
        if 2 * (t.count + 1) > Array.length t.keys then (grow [@alloc_cold]) t;
        let k = (c lsl qbits) lor q in
        let s = find_slot t.keys t.mask k in
        Array.unsafe_set t.keys s k;
        Array.unsafe_set t.lat s !best;
        Array.unsafe_set t.nxt s !bnext;
        t.count <- t.count + 1;
        sp := f;
        Array.unsafe_set ret_lat 0 !best;
        ret_next := !bnext;
        returning := true
      end
    done
  [@@alloc_free]
  in
  let q0 = clamp_budget c0 b in
  let latency =
    if c0 = 1 then 0.0
    else if q0 >= ch2.(c0) then ub.(c0)
    else begin
      let k = (c0 lsl qbits) lor q0 in
      let s = find_slot t.keys t.mask k in
      if Array.unsafe_get t.keys s = k then begin
        incr hits;
        Array.unsafe_get t.lat s
      end
      else begin
        incr misses;
        st_c.(0) <- c0;
        st_q.(0) <- q0;
        st_best.(0) <- infinity;
        st_next.(0) <- 0;
        sp := 1;
        returning := false;
        run_stack ();
        ret_lat.(0)
      end
    end
  in
  (* Reconstruct the sequence by replaying the memoized decisions; every
     constrained state on the optimal path was settled above. *)
  let rec rebuild c q acc =
    if c = 1 then List.rev acc
    else begin
      let next =
        if q >= Array.unsafe_get ch2 c then Array.unsafe_get t.ub_next c
        else begin
          let k = (c lsl qbits) lor q in
          let s = find_slot t.keys t.mask k in
          assert (Array.unsafe_get t.keys s = k);
          incr hits;
          Array.unsafe_get t.nxt s
        end
      in
      let qq = T.questions c next in
      rebuild next (clamp_budget next (q - qq)) (next :: acc)
    end
  in
  let sequence = rebuild c0 q0 [ c0 ] in
  let allocation = Allocation.of_count_sequence sequence in
  (* [states_visited] counts the states this solve settled (every miss
     settles exactly one): on a fresh solve this equals the historical
     memo size; on a cache-warm solve it is the incremental work only. *)
  let new_states = t.count - count0 in
  Metrics.incr (Metrics.counter metrics ~section:"planner" "plans");
  Metrics.add m_hits !hits;
  Metrics.add m_misses !misses;
  Metrics.add m_pruned !pruned;
  Metrics.add
    (Metrics.counter metrics ~section:"planner" "states_visited")
    new_states;
  {
    sequence;
    allocation;
    latency;
    questions_used = Allocation.questions_total allocation;
    states_visited = new_states;
  }

let optimal_latency problem = (solve problem).latency

(* --- the seed solver, kept as an in-tree reference ---------------------- *)

(* State key: candidates * clamped remaining budget. *)
module Memo = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = (a * 1_000_003) + b
end)

let unconstrained_table latency_of c0 =
  let ub = Array.make (c0 + 1) 0.0 in
  let ub_next = Array.make (c0 + 1) 1 in
  for c = 2 to c0 do
    let best = ref infinity and best_next = ref 1 in
    for c' = 1 to c - 1 do
      let cand = latency_of (T.questions c c') +. ub.(c') in
      if cand < !best then begin
        best := cand;
        best_next := c'
      end
    done;
    ub.(c) <- !best;
    ub_next.(c) <- !best_next
  done;
  (ub, ub_next)

let solve_hashtbl (problem : Problem.t) =
  let latency_of = checked_latency_of "solve_hashtbl" problem.Problem.latency in
  let c0 = problem.Problem.elements in
  let b = problem.Problem.budget in
  let ub, ub_next = unconstrained_table latency_of c0 in
  (* Memo keyed by the boxed state; only budget-constrained states
     (q < choose2 c) are memoized, the rest resolve through [ub]. *)
  let memo : (float * int) Memo.t = Memo.create 4096 in
  let rec ol c q =
    if c = 1 then (0.0, 1)
    else if q >= Ints.choose2 c then (ub.(c), ub_next.(c))
    else
      match Memo.find_opt memo (c, q) with
      | Some r -> r
      | None ->
          let best = ref infinity in
          let best_next = ref 0 in
          for c' = 1 to c - 1 do
            let qq = T.questions c c' in
            let rem = q - qq in
            if rem >= c' - 1 then begin
              let round = latency_of qq in
              if round +. ub.(c') < !best then begin
                let tail, _ = ol c' (clamp_budget c' rem) in
                let total = round +. tail in
                if total < !best then begin
                  best := total;
                  best_next := c'
                end
              end
            end
          done;
          let r = (!best, !best_next) in
          Memo.add memo (c, q) r;
          r
  in
  let latency, _ = ol c0 (clamp_budget c0 b) in
  let rec rebuild c q acc =
    if c = 1 then List.rev acc
    else begin
      let _, next = ol c q in
      let qq = T.questions c next in
      rebuild next (clamp_budget next (q - qq)) (next :: acc)
    end
  in
  let sequence = rebuild c0 (clamp_budget c0 b) [ c0 ] in
  let allocation = Allocation.of_count_sequence sequence in
  {
    sequence;
    allocation;
    latency;
    questions_used = Allocation.questions_total allocation;
    states_visited = Memo.length memo;
  }

let solve_bottom_up (problem : Problem.t) =
  let latency_of = checked_latency_of "solve_bottom_up" problem.Problem.latency in
  let c0 = problem.Problem.elements in
  let b = clamp_budget c0 problem.Problem.budget in
  (* table.(c).(q): optimal latency and best next count from c candidates
     with q remaining questions. Row c only needs q up to choose2 c, but
     a rectangular table keeps the reference implementation plain. *)
  let table = Array.make_matrix (c0 + 1) (b + 1) (infinity, 0) in
  for q = 0 to b do
    table.(1).(q) <- (0.0, 1)
  done;
  let states = ref (b + 1) in
  for c = 2 to c0 do
    for q = c - 1 to b do
      let best = ref infinity and best_next = ref 0 in
      for c' = 1 to c - 1 do
        let qq = T.questions c c' in
        let rem = q - qq in
        if rem >= c' - 1 then begin
          let tail, _ = table.(c').(min rem b) in
          let total = latency_of qq +. tail in
          if total < !best then begin
            best := total;
            best_next := c'
          end
        end
      done;
      table.(c).(q) <- (!best, !best_next);
      incr states
    done
  done;
  let latency, _ = table.(c0).(b) in
  let rec rebuild c q acc =
    if c = 1 then List.rev acc
    else begin
      let _, next = table.(c).(q) in
      let qq = T.questions c next in
      rebuild next (min (q - qq) b) (next :: acc)
    end
  in
  let sequence = rebuild c0 b [ c0 ] in
  let allocation = Allocation.of_count_sequence sequence in
  {
    sequence;
    allocation;
    latency;
    questions_used = Allocation.questions_total allocation;
    states_visited = !states;
  }

let brute_force (problem : Problem.t) =
  if problem.Problem.elements > 14 then
    invalid_arg "Tdp.brute_force: instance too large";
  let latency_of = checked_latency_of "brute_force" problem.Problem.latency in
  let best = ref None in
  let states = ref 0 in
  (* Enumerate every strictly decreasing sequence ending at 1 within the
     budget; [acc] holds the reversed prefix. *)
  let rec go c budget latency acc =
    incr states;
    if c = 1 then begin
      match !best with
      | Some (l, _) when l <= latency -> ()
      | _ -> best := Some (latency, List.rev acc)
    end
    else
      for c' = c - 1 downto 1 do
        let qq = T.questions c c' in
        if budget - qq >= c' - 1 then
          go c' (budget - qq) (latency +. latency_of qq) (c' :: acc)
      done
  in
  go problem.Problem.elements problem.Problem.budget 0.0
    [ problem.Problem.elements ];
  match !best with
  | None -> assert false (* Problem.create guarantees feasibility *)
  | Some (latency, sequence) ->
      let allocation = Allocation.of_count_sequence sequence in
      {
        sequence;
        allocation;
        latency;
        questions_used = Allocation.questions_total allocation;
        states_visited = !states;
      }
