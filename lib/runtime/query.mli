(** One MAX query as a state machine: the round loop every driver runs.

    The paper's runtime is one algorithm: a plan fixes the round's
    budget, selection picks the questions, the crowd's answers prune the
    candidates, and this repeats until one candidate survives. A query's
    state (answer DAG, round index, remaining budget, straggler queue,
    posted count, latency sum, trace) lives here, and each round is
    four steps called in order:

    - {!plan} fixes the round's budget, or reports the query done;
    - {!select} picks the round's questions;
    - the driver answers them ({!answer} for one query on its own, the
      shared marketplace plus {!resolve_received} for the query server)
      and {!absorb} folds the {!round_outcome} into the state;
    - once {!plan} reports done, {!finish} picks the answer.

    A driver supplies only its {!planner}, its answer source and its
    observer. {!Engine} runs a fixed allocation; {!Adaptive} re-solves
    on its current (re-fitted) model; the query server re-solves on a
    contention-effective model and calls the steps itself, so every
    query selects before the one marketplace call and absorbs after it.
    The steps draw from the rng only through the selector and the
    answer source, and read the clock only to time the selector into an
    enabled span. *)

(** The types the drivers share; {!Engine} re-exports them. *)
module Types : sig
  type answer_source =
    | Oracle
        (** error-free workers: every question is answered truthfully
            and instantly by the ground truth; latency comes from the
            model *)
    | Simulated of {
        platform : Crowdmax_crowd.Platform.t;
        rwl : Crowdmax_crowd.Rwl.config;
      }
        (** the discrete-event platform answers (with worker errors) and
            the RWL cleans them up; round latency is the simulated batch
            completion time of all [votes * q] raw questions *)
    | Simulated_pool of {
        platform : Crowdmax_crowd.Platform.t;
        pool : Crowdmax_crowd.Worker_pool.t;
        votes : int;
      }
        (** identified workers with heterogeneous latent accuracy; the
            RWL forms each round's answers by accuracy-weighted consensus
            ([Rwl.resolve_pool]); latency as in [Simulated] *)

  type deadline_policy =
    | Wait_all
        (** block until every raw question of the round is answered —
            the paper's (and this engine's historical) behavior. Keeps
            rng draw order and therefore aggregates bit-identical to the
            pre-deadline engine. *)
    | Fixed of float
        (** cut every round off [d] simulated seconds after posting
            (must be > 0) *)
    | Quantile of float
        (** [Quantile p], [p] in (0, 1]: cut the round off at the
            latency model's predicted completion time of the
            ceil(p * posted)-th posted question — wait for the modeled
            p-th completion instead of the tail-dominated last one.
            [posted] counts {e distinct posted questions}, the one
            q-unit every consumer of L(q) uses (planner budgets, the
            Oracle path, the adaptive refit window); the [votes ×]
            repetition a simulated source posts is an environment
            property absorbed into the fitted model, never an argument
            to it. *)

  type straggler_policy =
    | Drop  (** forget questions that got zero votes by the deadline *)
    | Carry_forward
        (** repost them in later rounds, ahead of the selector's picks,
            for as long as both elements remain candidates *)
    | Reissue of int
        (** like [Carry_forward] but each question is reposted at most
            that many times ([Reissue 0] = [Drop]) *)

  type round_record = {
    round_index : int;
    round_budget : int;
    distinct_questions : int;  (** informative questions posted *)
    padded_questions : int;  (** redundant filler posted *)
    candidates_before : int;
    candidates_after : int;
    round_latency : float;
    unanswered_questions : int;
        (** distinct questions cut off with zero received votes (0 under
            [Wait_all]) *)
    reissued_questions : int;
        (** carried straggler questions reposted this round (0 under
            [Wait_all] / [Drop]) *)
    deadline_hit : bool;  (** the round's deadline cut the event loop *)
  }

  type result = {
    chosen : int;  (** the element returned as the MAX *)
    correct : bool;  (** equals the true MAX *)
    singleton : bool;  (** exactly one candidate remained (Sec. 4) *)
    rounds_run : int;
    questions_posted : int;  (** distinct + padded over all rounds run *)
    total_latency : float;
    trace : round_record list;  (** in round order *)
  }
end

open Types

val check_deadline : caller:string -> deadline_policy -> unit
(** Raises [Invalid_argument "<caller>: ..."] for a [Fixed] deadline not
    > 0 or a [Quantile] outside (0, 1]. *)

val round_deadline :
  deadline:deadline_policy ->
  latency_model:Crowdmax_latency.Model.t ->
  posted:int ->
  float option
(** The per-round cutoff a policy imposes, if any: [None] for
    [Wait_all], the fixed value for [Fixed], and for [Quantile p] the
    latency model evaluated at [max 1 (ceil (p * posted))] — [posted]
    in {e distinct posted questions}, the pinned L(q) unit convention
    (see {!Types.deadline_policy}). *)

type t
(** One query's live state. *)

val create :
  straggler:straggler_policy -> budget:int -> Crowdmax_crowd.Ground_truth.t -> t
(** A fresh query over the truth's elements with [budget] questions to
    spend. *)

val rounds : t -> int
(** Rounds absorbed so far: the next round's index. *)

(** The round most recently selected (and, after {!absorb}, answered): *)

val posted : t -> int
(** questions posted, padding included *)

val distinct : t -> int
(** informative questions posted (carried stragglers included) *)

val reissued : t -> int
(** carried stragglers reposted *)

type planner =
  | Static of int array
      (** a fixed allocation's round budgets: the query is done when
          they run out. A round whose selector asks nothing is still
          recorded — it used its slot. *)
  | Replanning of (t -> bool)
      (** a re-solving planner ({!replan}); [false] means done. A round
          whose selector asks nothing ends the query: a re-plan of the
          unchanged state would ask the same selector again. *)

val plan : t -> planner -> bool
(** [false] once at most one candidate is left or the planner is done;
    otherwise the round's budget is set. *)

val can_plan : t -> bool
(** At least two candidates and, by Theorem 1, budget enough to finish
    them: the precondition of {!replan}. *)

val replan :
  cache:Crowdmax_core.Tdp.Cache.t -> model:Crowdmax_latency.Model.t -> t -> bool
(** Solve MinLatency with tDP for the live candidates and the remaining
    budget under [model], and take the plan's first round (clipped to
    the budget left); [false] when the plan has no round. Selectors see
    the new plan's length as the horizon. *)

val select :
  t ->
  pad:bool ->
  selection:Crowdmax_selection.Selection.t ->
  span:Crowdmax_obs.Metrics.span ->
  Crowdmax_util.Rng.t ->
  bool
(** Pick the planned round's questions: live carried stragglers first
    (up to the budget), then the selector's picks for the rest of the
    budget (no selector call, so no draws, if nothing is left), minus
    any re-pick of a carried pair; [pad] fills up to the budget with
    redundant questions. The selector's wall time goes to [span].
    Returns whether the round posts anything. *)

type round_outcome = {
  round_seconds : float;
      (** what the round cost the caller: the simulated batch completion
          time, clipped to the deadline when one was hit (or the latency
          model's prediction under [Oracle]) *)
  observed_seconds : float;
      (** the platform's actual last-completion time, never
          deadline-clipped — the honest measurement an L(q) estimator
          should see; equals [round_seconds] when no deadline was hit *)
  answered : int;  (** answers recorded into the DAG *)
  unanswered : (int * int) list;
      (** distinct questions cut off with zero received votes *)
  round_deadline_hit : bool;
}

val answer :
  ?scratch:Crowdmax_crowd.Platform.scratch ->
  rwl:Crowdmax_crowd.Rwl.scratch ->
  ?metrics:Crowdmax_obs.Metrics.t ->
  Crowdmax_util.Rng.t ->
  source:answer_source ->
  deadline:deadline_policy ->
  latency_model:Crowdmax_latency.Model.t ->
  t ->
  round_outcome
(** Answer the selected round from a source serving this query alone,
    recording the answers into the DAG. The [Oracle] answers from the
    ground truth at the model's latency and draws nothing. A simulated
    source under [Wait_all] draws the RWL votes first, then the platform
    batch of [votes * posted] raw questions — the historical order the
    golden aggregates pin; under a finite deadline it runs the platform
    first and resolves only the votes received by the cutoff. Votes are
    resolved in [rwl], the driver's reusable RWL scratch; [scratch] is
    its platform scratch (a fresh one per call when omitted). *)

val vote_counts : t -> int array
(** Zeroed per-question vote counters for the selected round. *)

val count_vote : t -> int array -> int -> unit
(** [count_vote q counts idx] credits raw answer [idx] of the round's
    batch to its question: repetition [idx] belongs to posted slot
    [idx mod posted], so early completions spread over the whole batch;
    slots past the distinct questions are padding and count for
    nothing. *)

val resolve_received :
  rwl:Crowdmax_crowd.Rwl.scratch ->
  Crowdmax_util.Rng.t ->
  answer_source ->
  t ->
  int array ->
  Crowdmax_crowd.Platform.report ->
  round_outcome
(** [resolve_received ~rwl rng source q counts report] finishes a round
    the platform answered first: resolves the votes received ([counts])
    through the source's RWL in the scratch [rwl], records the answers
    into the DAG, and prices the round by [report]. Raises
    [Invalid_argument] for [Oracle], which casts no votes. *)

val absorb : t -> round_outcome -> unit
(** Fold an answered round into the state: latency, posted count and
    remaining budget; the straggler queue (cut-off questions queued per
    the straggler policy, pairs with a beaten element pruned); the trace
    record; the round index. *)

val finish : t -> result
(** The query's answer: the sole surviving candidate, or else the
    highest-scoring one (Algorithm 2). Raises [Failure] if every element
    has lost a comparison — recorded answers must leave one unbeaten. *)

val run :
  t ->
  planner:planner ->
  pad:bool ->
  selection:Crowdmax_selection.Selection.t ->
  span:Crowdmax_obs.Metrics.span ->
  answer:(Crowdmax_util.Rng.t -> t -> round_outcome) ->
  observe:(t -> round_outcome -> unit) ->
  Crowdmax_util.Rng.t ->
  result
(** One query to the end: {!plan}, {!select}, [answer], {!absorb} and
    the driver's [observe] hook, until {!plan} reports done; then
    {!finish}. *)
