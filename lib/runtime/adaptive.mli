(** Adaptive tDP: re-plan after every round, and optionally close the
    estimation loop (an extension beyond the paper; ROADMAP "Online
    re-planning").

    Static tDP fixes the whole allocation up front, sized for the
    worst case of every round (tournament winners are deterministic, so
    with tournament selection the plan is exact). When rounds eliminate
    more candidates than planned — cross-tournament extras, or a
    non-tournament selector — the remaining plan is oversized. The
    adaptive runner instead solves the MinLatency problem again after
    each round for the *actual* surviving candidates and remaining
    budget, and runs only the first round of each plan.

    With plain tournament selection and no extras this reproduces static
    tDP exactly (the DP's suffix optimality), which the test suite
    checks; with extras it can only do better. The ablation bench
    quantifies the gain.

    Beyond re-planning, the runner can close the {e estimation} loop:
    drive the simulated platform instead of the oracle, collect each
    round's [(posted, observed seconds)] as an
    {!Crowdmax_latency.Estimate.observation}, and — under a
    {!refit_policy} — re-fit L(q) on the recent observation window and
    re-solve through the plan cache when the fitted model drifts. This
    is how a plan survives a platform whose true L(q) shifts mid-run
    (supply drop, flash crowd): the Fig_adapt experiment measures the
    recovery. *)

type refit_policy =
  | Off
      (** never re-fit: plan open-loop with the problem's model. The
          default — and guaranteed not to consume a single extra rng
          draw, so default-configuration aggregates stay bit-identical
          to the pre-closed-loop runtime (pinned by golden hexes). *)
  | Every_k_rounds of int
      (** re-fit on the observation window every [k] rounds (attempted
          each round after the period elapses until a fit succeeds;
          period must be >= 1) *)
  | On_drift of float
      (** re-fit when the current model's relative residual —
          [Estimate.residual_rms model window / mean observed seconds] —
          exceeds the threshold (must be > 0). The re-fit uses only the
          window points that individually violate the threshold, so a
          window straddling the shift does not contaminate the new
          regime's fit; when those points span fewer than the two
          distinct batch sizes a full fit needs, the loop instead
          anchors the current model's intercept and re-solves its slope
          through the newest violating observation (a one-point,
          one-parameter re-fit — tDP plans are front-loaded, so waiting
          another round for a second size would burn the largest
          remaining batch on the mis-modeled platform). Installing a
          re-fit clears the window (the old points were judged against
          the replaced model, and would read as fresh drift under the
          new one). *)

type result = {
  engine_result : Engine.result;
  replans : int;  (** number of tDP solves performed *)
  refits : int;  (** re-fits that produced a usable (installed) model *)
  drift_detected : int;
      (** rounds where the drift detector fired (On_drift only) *)
  replans_on_drift : int;
      (** solves planned with a model installed by an On_drift re-fit
          differing from the one it replaced *)
  final_model : Crowdmax_latency.Model.t;
      (** the latency model the loop ended with — the problem's own
          model unless a re-fit or [model_shift] replaced it *)
  observations : Crowdmax_latency.Estimate.observation list;
      (** every observation the closed loop recorded, newest first
          (empty under [Off]). Each point is
          [(posted distinct questions, observed_seconds)] where the
          seconds are the platform's [last_completion] — {e never} the
          deadline-clipped round cost, so a supply crash under a
          deadline stays visible to the drift detector. The list
          survives window truncation and post-install clearing: it is
          the audit trail, not the live window. *)
}

val run :
  ?cache:Crowdmax_core.Tdp.Cache.t ->
  ?source:Engine.answer_source ->
  ?deadline:Engine.deadline_policy ->
  ?refit:refit_policy ->
  ?refit_window:int ->
  ?metrics:Crowdmax_obs.Metrics.t ->
  ?scratch:Crowdmax_crowd.Platform.scratch ->
  ?source_shift:int * Engine.answer_source ->
  ?model_shift:int * Crowdmax_latency.Model.t ->
  Crowdmax_util.Rng.t ->
  problem:Crowdmax_core.Problem.t ->
  selection:Crowdmax_selection.Selection.t ->
  Crowdmax_crowd.Ground_truth.t ->
  result
(** Run the MAX operator with per-round re-planning. Raises
    [Invalid_argument] if the ground truth size differs from the
    problem's element count, or on an invalid policy (non-positive
    [Every_k_rounds] period or [On_drift] threshold, [refit_window] < 2,
    invalid deadline).

    The rounds run through the {!Query} state machine with a
    re-solving planner ({!Query.replan} through [cache] on the current
    model), no padding and the [Drop] straggler policy; the re-fit below
    is its per-round observer.

    [source] (default [Oracle]) answers each round through
    {!Query.answer}: the oracle is instant and error-free with
    latency from the current model; the simulated sources draw the
    platform event stream and charge observed (deadline-clipped) round
    seconds. Questions a deadline cuts off are dropped — the next
    round's re-plan and re-selection subsume carry-forward.

    [refit] (default [Off]) closes the loop: each round contributes one
    observation [(posted, observed seconds)] — the platform's
    [last_completion], not the deadline-clipped round cost — to a
    most-recent-first window
    of at most [refit_window] (default 8) entries, and the policy decides
    when to re-fit the current model's family on it
    ({!Crowdmax_latency.Estimate.refit}). A fitted model is installed
    only if it comes back from the validating constructors, is
    non-decreasing up to the total budget and is positive at one
    question; otherwise the old model is
    kept and the loop simply tries again later. Installing a model that
    differs from the current one makes the next [Tdp.solve] re-plan
    against it (the plan cache invalidates on model inequality).

    [source_shift]/[model_shift] [(k, v)] replace the answer source /
    planning model just before round [k] runs — the experiment hooks for
    mid-run supply shifts and omniscient-replan baselines.

    [metrics] (default disabled) records into the ["adaptive"] section:
    [refits], [replans_on_drift], [drift_detected] counters and the
    [fit_residual_rms_seconds] histogram (observed at every drift
    evaluation). All recorded values are simulated quantities.

    [cache] (default a private one) backs every replan: the first solve
    builds the planner tables, the shrinking-c0 replans only settle the
    states the earlier solves haven't. Cached solves are bit-identical
    to fresh ones, so the cache never changes the result — it only cuts
    replanning time. The cache is single-domain mutable state; do not
    share one across domains. *)

type aggregate = {
  engine_aggregate : Engine.aggregate;
  total_replans : int;
  total_refits : int;
  total_drift_detected : int;
  total_replans_on_drift : int;
}
(** Replicated adaptive statistics: the engine aggregate plus the
    summed re-fit counters, folded in run order (so they share the
    engine aggregate's any-[jobs] bit-identity). *)

val replicate :
  ?jobs:int ->
  ?source:Engine.answer_source ->
  ?deadline:Engine.deadline_policy ->
  ?refit:refit_policy ->
  ?refit_window:int ->
  ?source_shift:int * Engine.answer_source ->
  ?model_shift:int * Crowdmax_latency.Model.t ->
  runs:int ->
  seed:int ->
  problem:Crowdmax_core.Problem.t ->
  selection:Crowdmax_selection.Selection.t ->
  unit ->
  aggregate
(** Aggregate adaptive runs over random ground truths. [jobs] fans runs
    out across domains under the same determinism contract as
    {!Engine.replicate}: statistics are bit-identical for any [jobs].
    Runs on the same domain share one plan {!Crowdmax_core.Tdp.Cache}
    and one platform scratch (one each per chunk under [jobs > 1]), so
    only each chunk's first run pays the planner table build; because
    cached solves equal fresh solves bit-for-bit, the sharing is
    invisible in the aggregate. The re-fit optionals are passed through
    to {!run} unchanged. *)
