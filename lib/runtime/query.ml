module Metrics = Crowdmax_obs.Metrics
module Dag = Crowdmax_graph.Answer_dag
module Scoring = Crowdmax_graph.Scoring
module Model = Crowdmax_latency.Model
module Allocation = Crowdmax_core.Allocation
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Selection = Crowdmax_selection.Selection
module Ground_truth = Crowdmax_crowd.Ground_truth
module Platform = Crowdmax_crowd.Platform
module Rwl = Crowdmax_crowd.Rwl

module Types = struct
  type answer_source =
    | Oracle
    | Simulated of { platform : Platform.t; rwl : Rwl.config }
    | Simulated_pool of {
        platform : Platform.t;
        pool : Crowdmax_crowd.Worker_pool.t;
        votes : int;
      }

  type deadline_policy = Wait_all | Fixed of float | Quantile of float
  type straggler_policy = Drop | Carry_forward | Reissue of int

  type round_record = {
    round_index : int;
    round_budget : int;
    distinct_questions : int;
    padded_questions : int;
    candidates_before : int;
    candidates_after : int;
    round_latency : float;
    unanswered_questions : int;
    reissued_questions : int;
    deadline_hit : bool;
  }

  type result = {
    chosen : int;
    correct : bool;
    singleton : bool;
    rounds_run : int;
    questions_posted : int;
    total_latency : float;
    trace : round_record list;
  }
end

open Types

let check_deadline ~caller = function
  | Wait_all -> ()
  | Fixed d ->
      if Float.is_nan d || d <= 0.0 then
        invalid_arg (caller ^ ": Fixed deadline must be > 0")
  | Quantile p ->
      if Float.is_nan p || p <= 0.0 || p > 1.0 then
        invalid_arg (caller ^ ": Quantile must be in (0, 1]")

(* The round deadline, if the policy imposes one. [Quantile p] waits
   until the latency model's predicted completion time of the
   ceil(p * posted)-th posted question — the modeled p-th completion
   time — instead of the (tail-dominated) last one.

   Unit convention (pinned across the whole runtime): L(q) takes q in
   {e distinct posted questions}. The planner's budgets, the Oracle
   path's [Model.eval latency_model posted], and the adaptive refit
   window's [batch_size = posted] all use that unit; the [votes ×]
   repetition a simulated source posts is a property of the answering
   environment, absorbed into the fitted model parameters exactly like
   worker arrival rates are. Evaluating the deadline at raw
   [votes * posted] (as this function once did) mixed a second unit
   into the same model: with votes = 3 the quantile deadline was priced
   at L(3q) while every other consumer asked about L(q), so refit-tuned
   models silently tripled the wait the policy granted. *)
let round_deadline ~deadline ~latency_model ~posted =
  match deadline with
  | Wait_all -> None
  | Fixed d -> Some d
  | Quantile p ->
      let k = max 1 (int_of_float (Float.ceil (p *. float_of_int posted))) in
      Some (Model.eval latency_model k)

type t = {
  truth : Ground_truth.t;
  dag : Dag.t;
  straggler : straggler_policy;
  mutable rounds : int;
  mutable remaining : int;
  mutable questions_posted : int;
  mutable latency : float;
  mutable pending : ((int * int) * int) list;
  mutable trace : round_record list;
  mutable budget : int;
  mutable horizon : int;
  mutable candidates : int;
  mutable carried : ((int * int) * int) list;
  mutable questions : (int * int) list;
  mutable distinct : int;
  mutable posted : int;
}

(* At most one answer per posted question, so the budget bounds the
   edge pool: preallocating it makes every DAG add allocation-free. *)
let create ~straggler ~budget truth =
  {
    truth;
    dag = Dag.create ~edge_capacity:budget (Ground_truth.size truth);
    straggler;
    rounds = 0;
    remaining = budget;
    questions_posted = 0;
    latency = 0.0;
    pending = [];
    trace = [];
    budget = 0;
    horizon = 0;
    candidates = 0;
    carried = [];
    questions = [];
    distinct = 0;
    posted = 0;
  }

let rounds q = q.rounds
let posted q = q.posted
let distinct q = q.distinct
let reissued q = List.length q.carried

(* --- plan ----------------------------------------------------------------- *)

type planner = Static of int array | Replanning of (t -> bool)

let plan q planner =
  Dag.candidate_count q.dag > 1
  &&
  match planner with
  | Static budgets ->
      let more = q.rounds < Array.length budgets in
      if more then begin
        q.budget <- budgets.(q.rounds);
        q.horizon <- Array.length budgets
      end;
      more
  | Replanning f -> f q

let can_plan q =
  let c = Dag.candidate_count q.dag in
  c > 1 && q.remaining >= c - 1

(* Re-plan for the actual state: the suffix of an earlier plan is only
   optimal for its worst case, a fresh solve is optimal for reality. A
   re-planning driver has no fixed horizon; the selectors see the
   current plan's length. *)
let replan ~cache ~model q =
  let plan =
    Tdp.solve ~cache
      (Problem.create ~elements:(Dag.candidate_count q.dag) ~budget:q.remaining
         ~latency:model)
  in
  q.horizon <- q.rounds + Allocation.rounds plan.Tdp.allocation;
  match Allocation.round_budgets plan.Tdp.allocation with
  | b :: _ ->
      q.budget <- min b q.remaining;
      q.budget > 0
  (* An empty allocation: the plan has no round left to run. *)
  | [] -> false

(* --- select --------------------------------------------------------------- *)

(* Split off the first [k] elements (all of them if fewer). *)
let rec take_at_most k = function
  | [] -> ([], [])
  | x :: rest when k > 0 ->
      let taken, dropped = take_at_most (k - 1) rest in
      (x :: taken, dropped)
  | rest -> ([], rest)

let pair_eq (a, b) (c, d) = a = c && b = d
let unordered_pair_eq (a, b) (c, d) = (a = c && b = d) || (a = d && b = c)

(* A queued straggler is dead once either element has lost: comparing
   the pair again cannot change the RC set. *)
let live q ((a, b), _) = Dag.losses q.dag a = 0 && Dag.losses q.dag b = 0

let select q ~pad ~selection ~span rng =
  let candidates = Dag.candidates q.dag in
  (* Carried stragglers go out first, consuming round budget before the
     selector sees it. Dead pairs must never reach [take_at_most]: one
     that consumed a budget slot would crowd out a live selector
     question. [absorb] already prunes the queue; this filter restates
     the invariant at the consume site so correctness never rests on
     the insertion discipline alone. *)
  let carried, deferred =
    take_at_most q.budget (List.filter (live q) q.pending)
  in
  q.pending <- deferred;
  let carried_pairs = List.map fst carried in
  let sel_budget = q.budget - List.length carried in
  let selected =
    if sel_budget = 0 then []
    else
      let input =
        {
          Selection.budget = sel_budget;
          candidates;
          history = q.dag;
          round_index = q.rounds;
          total_rounds = q.horizon;
          carried = carried_pairs;
        }
      in
      Metrics.time span (fun () -> selection.Selection.select rng input)
  in
  (* A selector may independently re-pick a carried pair; keep the
     carried copy only. With nothing carried there is nothing to
     deduplicate. *)
  let questions =
    match carried_pairs with
    | [] -> selected
    | _ ->
        carried_pairs
        @ List.filter
            (fun p -> not (List.exists (unordered_pair_eq p) carried_pairs))
            selected
  in
  q.candidates <- Array.length candidates;
  q.carried <- carried;
  q.questions <- questions;
  q.distinct <- List.length questions;
  q.posted <- (if pad && q.distinct < q.budget then q.budget else q.distinct);
  q.posted > 0

(* --- answer --------------------------------------------------------------- *)

type round_outcome = {
  round_seconds : float;
  observed_seconds : float;
  answered : int;
  unanswered : (int * int) list;
  round_deadline_hit : bool;
}

(* A round that waited for every answer: billed and observed alike. *)
let settled seconds answered =
  {
    round_seconds = seconds;
    observed_seconds = seconds;
    answered;
    unanswered = [];
    round_deadline_hit = false;
  }

(* Raw-slot layout: repetition [i] of a round's raw batch belongs to
   posted slot [i mod posted] — repetitions interleave across the
   batch, so early completions spread over all questions instead of
   finishing the first few in full. Slots past [distinct] are padding
   and carry no information. *)
let vote_counts q = Array.make q.distinct 0

let count_vote q counts idx =
  let slot = idx mod q.posted in
  if slot < q.distinct then counts.(slot) <- counts.(slot) + 1

(* The RWL step of a simulated source: resolve the round's votes (only
   the received ones, given [votes_received]) in the driver's scratch
   and record the answers by index. RWL answers are conflict-free by
   contract, so the per-edge transitive cycle check would be pure
   overhead. *)
let resolve ?votes_received ~rwl rng source q =
  (match source with
  | Simulated { rwl = cfg; _ } ->
      Rwl.resolve_into rwl ?votes_received rng cfg ~truth:q.truth q.questions
  | Simulated_pool { pool; votes; _ } ->
      Rwl.resolve_pool_into rwl ?votes_received rng ~pool ~votes
        ~truth:q.truth q.questions
  | Oracle -> invalid_arg "Query.resolve: the oracle casts no votes");
  let answered = Rwl.answered rwl in
  for i = 0 to answered - 1 do
    Dag.add_answer_unchecked q.dag ~winner:(Rwl.winner rwl i)
      ~loser:(Rwl.loser rwl i)
  done;
  answered

let resolve_received ~rwl rng source q counts (report : Platform.report) =
  let answered = resolve ~votes_received:counts ~rwl rng source q in
  {
    round_seconds = report.Platform.latency;
    observed_seconds = report.Platform.last_completion;
    answered;
    unanswered = Rwl.unanswered rwl;
    round_deadline_hit = report.Platform.deadline_hit;
  }

(* Draw-order contract: under [Wait_all] the rng is consumed RWL votes
   first, then the platform's event stream, so aggregates stay
   bit-identical to the pre-deadline engine. A finite deadline needs the
   platform's completion report before votes can be drawn (only received
   repetitions count), so that path runs platform-first. *)
let answer ?scratch ~rwl ?(metrics = Metrics.disabled) rng ~source ~deadline
    ~latency_model q =
  match source with
  | Oracle ->
      (* Answers are instant and error-free; latency is purely the
         model's, so deadline/straggler policies are no-ops here. *)
      let ranks = Ground_truth.ranks q.truth in
      List.iter
        (fun (a, b) ->
          if ranks.(a) > ranks.(b) then
            Dag.add_answer_unchecked q.dag ~winner:a ~loser:b
          else Dag.add_answer_unchecked q.dag ~winner:b ~loser:a)
        q.questions;
      settled (Model.eval latency_model q.posted) q.distinct
  | Simulated { platform; rwl = { Rwl.votes; _ } }
  | Simulated_pool { platform; votes; _ } -> (
      (* All raw repetitions of all posted questions (padding included)
         go to the platform as one batch. *)
      let raw = votes * q.posted in
      match round_deadline ~deadline ~latency_model ~posted:q.posted with
      | None ->
          let answered = resolve ~rwl rng source q in
          settled
            (Platform.batch_latency ~metrics ?scratch platform rng raw)
            answered
      | Some deadline ->
          let counts = vote_counts q in
          let report =
            Platform.simulate ~deadline ~metrics ?scratch platform rng raw
              ~on_complete:(fun idx _time -> count_vote q counts idx)
          in
          resolve_received ~rwl rng source q counts report)

(* --- absorb --------------------------------------------------------------- *)

(* Straggler bookkeeping: a reposted pair spent one reissue; a freshly
   cut-off pair gets the policy's full allowance. *)
let reissues_left q pair =
  match List.find_opt (fun (p, _) -> pair_eq p pair) q.carried with
  | Some (_, r) -> if r = max_int then max_int else r - 1
  | None -> (
      match q.straggler with
      | Drop -> 0
      | Carry_forward -> max_int
      | Reissue cap -> cap)

let absorb q o =
  q.latency <- q.latency +. o.round_seconds;
  q.questions_posted <- q.questions_posted + q.posted;
  q.remaining <- q.remaining - q.posted;
  (* Invariant: [pending] holds only pairs of still-live candidates at
     every round boundary — this round's answers may have eliminated an
     element of a deferred or freshly cut-off pair, so prune against the
     post-round DAG before queueing. *)
  q.pending <-
    List.filter (live q)
      (q.pending
      @ List.filter_map
          (fun pair ->
            let r = reissues_left q pair in
            if r > 0 then Some (pair, r) else None)
          o.unanswered);
  q.trace <-
    {
      round_index = q.rounds;
      round_budget = q.budget;
      distinct_questions = q.distinct;
      padded_questions = q.posted - q.distinct;
      candidates_before = q.candidates;
      candidates_after = Dag.candidate_count q.dag;
      round_latency = o.round_seconds;
      unanswered_questions = List.length o.unanswered;
      reissued_questions = List.length q.carried;
      deadline_hit = o.round_deadline_hit;
    }
    :: q.trace;
  q.rounds <- q.rounds + 1

(* --- finish --------------------------------------------------------------- *)

let finish q =
  let chosen =
    match Dag.winner q.dag with
    | Some w -> w
    | None -> (
        match Scoring.ranked_candidates q.dag with
        | best :: _ -> best
        | [] ->
            failwith
              "Query.finish: every element has lost a comparison; the answers \
               must leave at least one unbeaten candidate")
  in
  {
    chosen;
    correct = chosen = Ground_truth.max_element q.truth;
    singleton = Dag.is_singleton q.dag;
    rounds_run = q.rounds;
    questions_posted = q.questions_posted;
    total_latency = q.latency;
    trace = List.rev q.trace;
  }

(* --- one query, start to finish ------------------------------------------- *)

(* What a round that posted nothing reports. *)
let nothing_asked = settled 0.0 0

let run q ~planner ~pad ~selection ~span ~answer ~observe rng =
  let asking = ref true in
  while !asking && plan q planner do
    if select q ~pad ~selection ~span rng then begin
      let o = answer rng q in
      absorb q o;
      observe q o
    end
    else
      match planner with
      (* A selector that asks nothing cannot make progress, but the round
         still consumed its slot in a fixed allocation: record it (zero
         questions, zero latency) so trace indices stay dense. *)
      | Static _ ->
          absorb q nothing_asked;
          observe q nothing_asked
      (* A re-plan of the unchanged state would ask the same selector
         again: the query is done. *)
      | Replanning _ -> asking := false
  done;
  finish q
