(** tDP: the dynamic-programming budget allocator (Algorithm 1).

    Solves the MinLatency problem exactly: over all candidate-count
    sequences [(c_i)] with [c_r = 1] and total questions within budget,
    minimize [sum L(Q(c_{i-1}, c_i))]. By Theorem 4 the result is also
    optimal for the Generalized Worst MinLatency problem, where rounds
    may ask arbitrary question graphs.

    The implementation is the paper's top-down memoization with one
    refinement: since a pair of elements can meet at most once across a
    tournament sequence, [OL(q, c) = OL(choose2 c, c)] for
    [q > choose2 c], so the remaining budget is clamped at [choose2 c].
    This both bounds the state space for very large budgets (the Fig. 15
    "pruning" effect) and realizes the paper's budget-limiting behaviour
    (Figs. 13(b), 14(b)).

    The memo is a flat arena: the [(c, q)] state packs into one tagged
    int key, DP values live in parallel unboxed [float]/[int] arrays
    probed open-addressed on ints from a home slot that hashes the whole
    key (see {!Cache.mean_displacement}), and the recursion is an explicit
    work stack (deep c0 cannot overflow the OCaml stack). Q(c, c') is
    never tabulated — candidate scans step it linearly through
    constant-quotient runs of c', one division per run — and runs that
    provably cannot beat the incumbent (by the Theorem 1 guard, or by
    the unconstrained bound when L and the ub table are non-decreasing)
    are skipped whole, without changing any value, decision or counter.
    [L(q)] is inlined for linear models and memoized into a float array
    for the rest. {!Cache} exposes the working state as a reusable
    handle so budget sweeps and re-plans skip the table build and
    explore only unsettled states. *)

type solution = {
  sequence : int list;  (** (c_i): [elements] down to 1 *)
  allocation : Allocation.t;
  latency : float;  (** optimal objective value, seconds *)
  questions_used : int;  (** may be below the budget (Sec. 6.5) *)
  states_visited : int;
      (** constrained DP states this solve settled (= its memo misses).
          Without a cache this is the historical "memo entries created";
          against a warm {!Cache} it is the incremental work only, and 0
          when every state was already settled. Fig. 15 diagnostics. *)
}

(** A reusable planner cache: the [ub]/[ub_next] unconstrained tables,
    the L memo (non-linear models) and the flat state arena, retained
    across {!solve} calls.

    Invalidation rule — a solve reuses the cache iff both hold:
    - the latency model equals the cached one
      ({!Crowdmax_latency.Model.equal}: structural with typed float
      comparison; [Custom] models only by physical identity);
    - the instance's [elements] is at most the cached capacity (the
      largest c0 the tables were built for).

    Otherwise the solve rebuilds everything for the new (model, c0).
    A cache holds exactly one model's tables: a solve under a different
    model discards them, so a later solve under the first model builds
    them again. A caller that alternates models should hold one cache
    per model ([Adaptive.run] plans re-fitted models on a cache of its
    own for this reason).
    Reuse at smaller c0 is sound because every table entry is a pure
    function of (model, state) alone — which is also why cached and
    fresh solves return bit-identical solutions; only the hit/miss
    split and [states_visited] change.

    A cache is single-domain mutable state: never share one across
    domains (give each worker its own, as [Adaptive.replicate] does). *)
module Cache : sig
  type t

  val create : unit -> t
  (** An empty cache; the first solve through it builds the tables. *)

  val clear : t -> unit
  (** Drop everything (tables, arena, statistics), as if fresh. *)

  val hits : t -> int
  (** Solves that reused the retained tables. *)

  val misses : t -> int
  (** Solves that (re)built the tables: first use, model change, or
      capacity growth. *)

  val states_settled : t -> int
  (** Constrained DP states currently in the arena. *)

  val capacity : t -> int
  (** Largest c0 the current tables cover; 0 when empty. *)

  val mean_displacement : t -> float
  (** Mean distance, in slots, of the arena's settled states from their
      home slots: how far a memo probe walks past its first slot. Computed
      on demand by scanning the arena (never on the solve path); 0 when
      the arena is empty. A diagnostic for the arena's hash. *)
end

val solve :
  ?metrics:Crowdmax_obs.Metrics.t -> ?cache:Cache.t -> Problem.t -> solution
(** Optimal solution. The problem is feasible by construction
    ([Problem.create] enforces Theorem 1).

    [cache] (default a private one) retains the planner tables across
    calls under the {!Cache} invalidation rule. The solution is
    bit-identical with or without it.

    [metrics] (default disabled) registers planner instruments in the
    ["planner"] section: [plans], [states_visited], [memo_hits] /
    [memo_misses] (hits include the sequence-reconstruction replay),
    [ub_pruned_branches] (branches whose unconstrained lower bound
    could not beat the incumbent), [plan_cache_hits] /
    [plan_cache_misses] (cache reuses/rebuilds — recorded only when
    [cache] is supplied), and the [plan_seconds] real-time span. All
    counters are pure functions of the problem and cache state, so they
    are deterministic; only [plan_seconds] is machine-dependent.

    Raises [Invalid_argument] if the latency model evaluates to a
    non-finite value at any batch size the search touches (a NaN would
    otherwise silently poison the whole DP table). *)

val optimal_latency : Problem.t -> float
(** Just the objective value. *)

val solve_bottom_up : Problem.t -> solution
(** Reference implementation filling the full [b x c0] table (no
    top-down pruning or memo): the oracle the tests check {!solve}
    against, bit for bit in [sequence], [latency] and [questions_used].
    [states_visited] counts every table cell, not the states {!solve}
    settles. Much slower on big budgets; intended for small
    instances. *)

val brute_force : Problem.t -> solution
(** Exhaustive enumeration of all feasible sequences. Exponential; only
    for tiny instances (tests). Raises [Invalid_argument] when
    [elements > 14]. *)
