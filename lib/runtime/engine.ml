open Crowdmax_util
module Clock = Crowdmax_obs.Clock
module Metrics = Crowdmax_obs.Metrics
module Model = Crowdmax_latency.Model
module Allocation = Crowdmax_core.Allocation
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Selection = Crowdmax_selection.Selection
module Ground_truth = Crowdmax_crowd.Ground_truth
module Platform = Crowdmax_crowd.Platform
module Rwl = Crowdmax_crowd.Rwl

include Query.Types

type config = {
  allocation : Allocation.t;
  selection : Selection.t;
  latency_model : Model.t;
  source : answer_source;
  pad_to_round_budget : bool;
  deadline : deadline_policy;
  straggler : straggler_policy;
}

let config ?(source = Oracle) ?(pad_to_round_budget = true)
    ?(deadline = Wait_all) ?(straggler = Drop) ~allocation ~selection
    ~latency_model () =
  {
    allocation;
    selection;
    latency_model;
    source;
    pad_to_round_budget;
    deadline;
    straggler;
  }

let plan_config ?metrics ?cache ?source ?pad_to_round_budget ?deadline
    ?straggler ~problem ~selection () =
  let sol = Tdp.solve ?metrics ?cache problem in
  config ?source ?pad_to_round_budget ?deadline ?straggler
    ~allocation:sol.Tdp.allocation ~selection
    ~latency_model:problem.Problem.latency ()

let check_policies cfg =
  Query.check_deadline ~caller:"Engine.run" cfg.deadline;
  match cfg.straggler with
  | Reissue n ->
      if n < 0 then invalid_arg "Engine.run: Reissue retry cap < 0"
  | Drop | Carry_forward -> ()

let round_deadline = Query.round_deadline

(* Fixed simulated-round-latency buckets (seconds), sized for the
   paper's platform scale (rounds cost hundreds to a few thousand
   seconds). Fixed bounds keep the exported schema stable. *)
let round_latency_buckets () =
  [| 120.0; 180.0; 240.0; 300.0; 420.0; 600.0; 900.0; 1500.0; 3600.0 |]

(* A reusable runner: policies checked, instruments registered, platform
   and RWL scratch allocated and the allocation's round budgets unpacked
   once, shared by every run the closure performs. This is the per-run
   fast path the replication loops and the bench harness use; a runner
   must not be shared across domains (the scratch is single-owner
   mutable state).

   Engine instruments. Every value recorded is a simulated quantity
   (question counts, simulated latencies) except [selector_seconds],
   the lone real-time span — so the engine section minus its spans is
   deterministic given the seed. Recording is a no-op branch when the
   registry is disabled; the golden hex tests pin the disabled path
   bit-identical to the historical engine. Registering once per runner
   rather than once per run matters: handles survive [Metrics.reset],
   and instrument lookup is a measurable share of the per-run
   observability cost on cheap (oracle) configurations. *)
let runner ?(metrics = Metrics.disabled) cfg =
  check_policies cfg;
  let counter name = Metrics.counter metrics ~section:"engine" name in
  let m_runs = counter "runs" in
  let m_rounds = counter "rounds_run" in
  let m_posted = counter "questions_posted" in
  let m_distinct = counter "questions_distinct" in
  let m_padded = counter "questions_padded" in
  let m_unanswered = counter "questions_unanswered" in
  let m_reissued = counter "questions_reissued" in
  let m_consensus = counter "consensus_resolutions" in
  let m_deadline_hits = counter "deadline_hits" in
  let m_round_latency =
    Metrics.histogram metrics ~section:"engine" "round_latency_seconds"
      ~buckets:(round_latency_buckets ())
  in
  let sel_span = Metrics.span metrics ~section:"engine" "selector_seconds" in
  let scratch =
    match cfg.source with
    | Oracle -> None (* answers never reach the platform *)
    | Simulated _ | Simulated_pool _ -> Some (Platform.scratch ())
  in
  let rwl = Rwl.scratch () in
  let planner =
    Query.Static (Array.of_list (Allocation.round_budgets cfg.allocation))
  in
  let budget = Allocation.questions_total cfg.allocation in
  let answer rng q =
    Query.answer ?scratch ~rwl ~metrics rng ~source:cfg.source
      ~deadline:cfg.deadline ~latency_model:cfg.latency_model q
  in
  (* A round that posted nothing (padding off, selector out of
     questions) only counts as run. *)
  let observe q (o : Query.round_outcome) =
    Metrics.incr m_rounds;
    let posted = Query.posted q and distinct = Query.distinct q in
    if posted > 0 then begin
      Metrics.add m_posted posted;
      Metrics.add m_distinct distinct;
      Metrics.add m_padded (posted - distinct);
      Metrics.add m_unanswered (List.length o.unanswered);
      Metrics.add m_reissued (Query.reissued q);
      Metrics.add m_consensus o.answered;
      if o.round_deadline_hit then Metrics.incr m_deadline_hits;
      Metrics.observe m_round_latency o.round_seconds
    end
  in
  fun rng truth ->
    Metrics.incr m_runs;
    Query.run
      (Query.create ~straggler:cfg.straggler ~budget truth)
      ~planner ~pad:cfg.pad_to_round_budget ~selection:cfg.selection
      ~span:sel_span ~answer ~observe rng

let run ?metrics rng cfg truth = runner ?metrics cfg rng truth

type timing = { jobs : int; wall_seconds : float; runs_per_sec : float }

type aggregate = {
  runs : int;
  mean_latency : float;
  stddev_latency : float;
  median_latency : float;
  p95_latency : float;
  singleton_rate : float;
  correct_rate : float;
  mean_questions : float;
  mean_rounds : float;
  timing : timing;
}

(* Field-by-field with Float.equal: polymorphic (=) on float-bearing
   records is unsound under NaN (never equal to itself) and conflates
   0.0 with -0.0, the bug class PR 1 fixed in Stats.percentile. Timing
   is machine-dependent and deliberately ignored. *)
let equal_stats a b =
  a.runs = b.runs
  && Float.equal a.mean_latency b.mean_latency
  && Float.equal a.stddev_latency b.stddev_latency
  && Float.equal a.median_latency b.median_latency
  && Float.equal a.p95_latency b.p95_latency
  && Float.equal a.singleton_rate b.singleton_rate
  && Float.equal a.correct_rate b.correct_rate
  && Float.equal a.mean_questions b.mean_questions
  && Float.equal a.mean_rounds b.mean_rounds

let make_timing ~jobs ~runs t0 =
  let wall_seconds = Clock.now () -. t0 in
  {
    jobs;
    wall_seconds;
    runs_per_sec = float_of_int runs /. Float.max wall_seconds 1e-9;
  }

(* Derive one rng per run from the master seed *sequentially*, whatever
   the parallelism: run [i] consumes exactly the stream it would consume
   in a [for]-loop over [Rng.split master], so the per-run results — and
   therefore every aggregate below, which folds arrays in index order —
   are bit-identical for any [jobs]. *)
let per_run_rngs ~runs ~seed =
  let master = Rng.create seed in
  let rngs = Array.make runs master in
  for i = 0 to runs - 1 do
    rngs.(i) <- Rng.split master
  done;
  rngs

let aggregate_results ~runs ~timing results =
  let latencies = Array.map (fun r -> r.total_latency) results in
  let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 results in
  let sum p = Array.fold_left (fun n r -> n + p r) 0 results in
  let f = float_of_int in
  {
    runs;
    mean_latency = Stats.mean latencies;
    stddev_latency = Stats.stddev latencies;
    median_latency = Stats.percentile latencies 50.0;
    p95_latency = Stats.percentile latencies 95.0;
    singleton_rate = f (count (fun r -> r.singleton)) /. f runs;
    correct_rate = f (count (fun r -> r.correct)) /. f runs;
    mean_questions = f (sum (fun r -> r.questions_posted)) /. f runs;
    mean_rounds = f (sum (fun r -> r.rounds_run)) /. f runs;
    timing;
  }

let replicate ?(jobs = 1) ~runs ~seed cfg ~elements =
  if runs < 1 then invalid_arg "Engine.replicate: runs < 1";
  if jobs < 1 then invalid_arg "Engine.replicate: jobs < 1";
  check_policies cfg;
  let t0 = Clock.now () in
  let results =
    Parallel.map_chunks ~jobs
      (fun rngs ->
        let run = runner cfg in
        Array.map (fun rng -> run rng (Ground_truth.random rng elements)) rngs)
      (per_run_rngs ~runs ~seed)
  in
  aggregate_results ~runs ~timing:(make_timing ~jobs ~runs t0) results

(* Metrics under parallel replication: a snapshot per run, merged in
   run order on the caller. Counters/peaks/histograms commute under
   merge and each per-run snapshot is a function of that run's rng
   alone, so the merged simulated entries are bit-identical for any
   [jobs]; only the [Real_seconds] spans vary between invocations.

   Registries are single-domain mutable state, so each worker needs its
   own — but a fresh registry per run would pay instrument registration
   on every run, which is the bulk of the per-run observability cost on
   cheap (oracle) configs. Instead each contiguous chunk of runs shares
   one registry, [Metrics.reset] between runs. A reset registry
   snapshots identically to a fresh one because [run] (and the platform
   underneath) registers its instrument set unconditionally, so the
   per-run snapshots — and hence the merged document — cannot depend on
   where the chunk boundaries fall. *)
let replicate_with_metrics ?(jobs = 1) ~runs ~seed cfg ~elements =
  if runs < 1 then invalid_arg "Engine.replicate_with_metrics: runs < 1";
  if jobs < 1 then invalid_arg "Engine.replicate_with_metrics: jobs < 1";
  check_policies cfg;
  let t0 = Clock.now () in
  let rngs = per_run_rngs ~runs ~seed in
  let aggregate results =
    aggregate_results ~runs ~timing:(make_timing ~jobs ~runs t0) results
  in
  (* [record metrics] keeps what a finished run left in the chunk's
     registry, before the next run resets it. *)
  let chunk record rngs =
    let metrics = Metrics.create () in
    let run = runner ~metrics cfg in
    Array.map
      (fun rng ->
        Metrics.reset metrics;
        let result = run rng (Ground_truth.random rng elements) in
        (result, record metrics))
      rngs
  in
  if jobs = 1 then begin
    (* Single chunk: every run is absorbed into a mutable accumulator.
       [absorb]'s value grouping is the left-fold merge of the per-run
       snapshots — exactly the parallel path's final fold — so the
       merged document is bit-identical for any [jobs] while the
       sequential path allocates no snapshots at all. *)
    let acc = Metrics.create () in
    let pairs = chunk (fun metrics -> Metrics.absorb ~into:acc metrics) rngs in
    (aggregate (Array.map fst pairs), Metrics.snapshot acc)
  end
  else
    let pairs = Parallel.map_chunks ~jobs (chunk Metrics.snapshot) rngs in
    ( aggregate (Array.map fst pairs),
      Metrics.merge (Array.to_list (Array.map snd pairs)) )
