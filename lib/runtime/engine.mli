(** The MAX-operator execution engine (Sec. 1-2).

    Runs the {!Query} round loop over a fixed allocation: take the next
    round budget from the allocation vector, let the question-selection
    algorithm pick the round's questions among the surviving
    candidates, obtain answers (from the error-free oracle, or from the
    simulated platform through the RWL), fold them into the answer DAG,
    and advance the winners. Stops early as soon as a single candidate
    remains; if the vector runs out with several candidates left (no
    singleton termination), the highest-scoring candidate is returned
    as the best guess.

    Latency accounting follows the paper: a round that posts [q]
    questions costs [L(q)]. Budget allocators other than tDP "always use
    the whole budget" (Sec. 6.5), so when a selector cannot produce
    enough distinct useful pairs the engine pads the round with redundant
    questions — they are still posted, still cost latency, but add no
    information. [pad_to_round_budget = false] disables this for
    ablations. *)

include module type of struct
  include Query.Types
end
(** The answer sources, deadline and straggler policies, and the
    per-round and per-query records ({!Query.Types}). *)

type config = {
  allocation : Crowdmax_core.Allocation.t;
  selection : Crowdmax_selection.Selection.t;
  latency_model : Crowdmax_latency.Model.t;
      (** used for latency whenever [answer_source = Oracle], and for
          deriving [Quantile] deadlines *)
  source : answer_source;
  pad_to_round_budget : bool;
  deadline : deadline_policy;
      (** per-round answer-collection cutoff. Only meaningful for the
          simulated sources: the [Oracle] answers instantly from the
          ground truth, so there is nothing to cut off. *)
  straggler : straggler_policy;
      (** what happens to questions with zero received votes when a
          finite deadline cuts a round off *)
}

val config :
  ?source:answer_source ->
  ?pad_to_round_budget:bool ->
  ?deadline:deadline_policy ->
  ?straggler:straggler_policy ->
  allocation:Crowdmax_core.Allocation.t ->
  selection:Crowdmax_selection.Selection.t ->
  latency_model:Crowdmax_latency.Model.t ->
  unit ->
  config
(** Defaults: [Oracle] source, padding on, [Wait_all], [Drop]. *)

val plan_config :
  ?metrics:Crowdmax_obs.Metrics.t ->
  ?cache:Crowdmax_core.Tdp.Cache.t ->
  ?source:answer_source ->
  ?pad_to_round_budget:bool ->
  ?deadline:deadline_policy ->
  ?straggler:straggler_policy ->
  problem:Crowdmax_core.Problem.t ->
  selection:Crowdmax_selection.Selection.t ->
  unit ->
  config
(** Solve the problem with tDP and build a {!config} around the optimal
    allocation and the problem's latency model — the planner-to-engine
    hand-off every driver repeats. [metrics] and [cache] go to
    {!Crowdmax_core.Tdp.solve}: a shared cache makes a budget or
    collection-size sweep of configs pay the table build once.
    Remaining optionals default as in {!config}. *)

val round_deadline :
  deadline:deadline_policy ->
  latency_model:Crowdmax_latency.Model.t ->
  posted:int ->
  float option
(** {!Query.round_deadline}, for drivers that run the platform
    themselves (the query server) and for unit-convention regression
    tests. *)

val runner :
  ?metrics:Crowdmax_obs.Metrics.t ->
  config ->
  Crowdmax_util.Rng.t ->
  Crowdmax_crowd.Ground_truth.t ->
  result
(** [runner cfg] validates policies, registers instruments and
    allocates simulation scratch buffers {e once}, returning a closure
    that behaves exactly like [run ?metrics _ cfg _] on every call —
    same draws, same results — without the per-run setup. Use it for
    tight replication or measurement loops. The returned closure owns
    mutable scratch: do not share one runner across domains (the
    replication entry points below manage per-worker reuse
    themselves). *)

val run :
  ?metrics:Crowdmax_obs.Metrics.t ->
  Crowdmax_util.Rng.t ->
  config ->
  Crowdmax_crowd.Ground_truth.t ->
  result
(** One complete MAX computation. Deterministic given the rng state.

    [metrics] (default disabled) records per-round counters in the
    ["engine"] section ([runs], [rounds_run], [questions_posted] /
    [_distinct] / [_padded] / [_unanswered] / [_reissued],
    [consensus_resolutions], [deadline_hits]), the
    [round_latency_seconds] histogram of simulated round latencies, and
    the [selector_seconds] real-time span; simulated sources also fill
    the ["platform"] section (see {!Crowdmax_crowd.Platform.simulate}).
    Metrics recording never draws from [rng] and never reads the clock
    on the simulated path, so enabling it cannot change the result —
    the golden hex tests pin this.

    The rounds run through {!Query.run} with a {!Query.Static} planner.
    With a finite {!deadline_policy} on a simulated source, a round
    stops collecting answers at its deadline: questions with a partial
    vote set are decided by majority (or weighted consensus) over the
    received votes, questions with zero votes are handled per the
    {!straggler_policy}, and [round_latency] is the deadline rather
    than the last completion. Rounds that post zero questions (a
    selector with nothing useful to ask and padding off) still emit a
    zero-latency [round_record], so [trace] is always dense:
    [List.length trace = rounds_run] and record [i] has
    [round_index = i].

    Raises [Invalid_argument] on an invalid policy ([Fixed] deadline
    not > 0, [Quantile] outside (0, 1], negative [Reissue] cap). *)

type timing = {
  jobs : int;  (** domains the replicate call actually used *)
  wall_seconds : float;  (** wall clock of the whole replicate call *)
  runs_per_sec : float;
}
(** Observed throughput of a [replicate] call, so parallel speedups are
    measured rather than asserted. Timing is the only part of an
    aggregate that legitimately varies between identical calls. *)

type aggregate = {
  runs : int;
  mean_latency : float;
  stddev_latency : float;
  median_latency : float;
  p95_latency : float;  (** tail latency across the replicated runs *)
  singleton_rate : float;  (** fraction of runs ending singleton *)
  correct_rate : float;
  mean_questions : float;
  mean_rounds : float;
  timing : timing;
}

val equal_stats : aggregate -> aggregate -> bool
(** Equality of everything except [timing] — the determinism contract:
    [equal_stats (replicate ~jobs:n ...) (replicate ~jobs:1 ...)] holds
    bit-for-bit for any [n] on otherwise-equal arguments. *)

val per_run_rngs : runs:int -> seed:int -> Crowdmax_util.Rng.t array
(** One generator per run, split from [Rng.create seed] in run order.
    Building block for [replicate]-style harnesses that must stay
    deterministic under parallel execution: split first, fan out after. *)

val make_timing : jobs:int -> runs:int -> float -> timing
(** [make_timing ~jobs ~runs t0] closes a timing record opened at
    [t0 = Crowdmax_obs.Clock.now ()]. *)

val aggregate_results : runs:int -> timing:timing -> result array -> aggregate
(** Fold per-run results (in run order) into an aggregate. Raises through
    [Stats] on an empty array. *)

val replicate :
  ?jobs:int ->
  runs:int ->
  seed:int ->
  config ->
  elements:int ->
  aggregate
(** Run [runs] times on fresh random ground truths (seeds derived from
    [seed]) and aggregate — the experiment harness's inner loop.

    [jobs] (default 1) fans the runs out over that many OCaml domains.
    Determinism contract: one rng per run is split from the master seed
    {e sequentially} before anything executes, runs touch no shared
    mutable state, and aggregates fold per-run results in run order — so
    the statistical fields of the result are bit-identical for every
    [jobs] value ({!equal_stats}). Raises [Invalid_argument] if
    [runs < 1] or [jobs < 1]. *)

val replicate_with_metrics :
  ?jobs:int ->
  runs:int ->
  seed:int ->
  config ->
  elements:int ->
  aggregate * Crowdmax_obs.Metrics.snapshot
(** {!replicate}, additionally collecting engine/platform metrics: each
    run records into its own registry (registries must not cross
    domains) and the per-run snapshots are merged in run order. The
    aggregate is bit-identical to [replicate]'s on equal arguments, and
    the merged snapshot minus its [Real_seconds] entries
    ({!Crowdmax_obs.Metrics.simulated_only}) is bit-identical for every
    [jobs] value and across repeat invocations with the same seed. *)
