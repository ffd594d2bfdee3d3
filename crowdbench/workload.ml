(* The four benchmark workloads, one per driver shape.

   A workload's set-up builds everything a run reuses (calibrations,
   up-front plans, runners) and is what [setup_s] times. A {e pass} is
   the fixed unit of measured work: [calls] driver calls on inputs
   drawn from the seed exactly as the library's own replicate path
   draws them (one rng per run split from the seed, ground truths
   first), so every pass of a run repeats the same work and its
   outcomes can be compared bit for bit with [Engine.replicate],
   [Adaptive.replicate] or [Server.replicate] at [jobs = 1]. *)

module Engine = Crowdmax_runtime.Engine
module Adaptive = Crowdmax_runtime.Adaptive
module Server = Crowdmax_server.Server
module Platform = Crowdmax_crowd.Platform
module Rwl = Crowdmax_crowd.Rwl
module Worker = Crowdmax_crowd.Worker
module Ground_truth = Crowdmax_crowd.Ground_truth
module Tdp = Crowdmax_core.Tdp
module Problem = Crowdmax_core.Problem
module Allocation = Crowdmax_core.Allocation
module Model = Crowdmax_latency.Model
module Contention = Crowdmax_latency.Contention
module Estimate = Crowdmax_latency.Estimate
module Selection = Crowdmax_selection.Selection
module Metrics = Crowdmax_obs.Metrics
module Clock = Crowdmax_obs.Clock
module Rng = Crowdmax_util.Rng
module Dag = Crowdmax_graph.Answer_dag
module Common = Crowdmax_experiments.Common
module Fig_adapt = Crowdmax_experiments.Fig_adapt
module Fig_server = Crowdmax_experiments.Fig_server
module R = Recorder

(* What the output check needs to know about one MAX query. *)
type outcome = {
  elements : int;
  budget : int;
  chosen : int;
  correct : bool;
  singleton : bool;
  oracle : bool;
  questions : int;
  latency : float;  (** simulated seconds the requester waited *)
  finite : bool;  (** no NaN or infinity anywhere in the query's report *)
}

(* The per-query invariants visible from outside the library. *)
let violation o =
  if not o.finite then Some "non-finite value in a report"
  else if o.latency < 0.0 then Some "negative latency"
  else if o.questions > o.budget then Some "questions over budget"
  else if o.chosen < 0 || o.chosen >= o.elements then
    Some "chosen element out of range"
  else if o.oracle && o.singleton && not o.correct then
    Some "oracle singleton run returned a wrong max"
  else None

(* How a pass is observed: a recording selector (traced run) and/or an
   enabled metrics registry. The plain pass has neither. *)
type mode = { recorder : R.t option; metrics : Metrics.t }

let plain = { recorder = None; metrics = Metrics.disabled }

let selection_of mode =
  match mode.recorder with
  | None -> Selection.tournament
  | Some r -> R.selection r

type pass = {
  calls : int;
  call : int -> unit;  (** driver call [i]; the harness times it *)
  finish : unit -> outcome array * (unit, string) result;
      (** outcomes in call order, and the comparison with the
          library's replicate path *)
  replay : R.tally -> int -> R.event array -> R.item list array;
      (** traced passes, right after call [i], in call order: re-issue
          its layer calls and return their costs per gap (see
          [R.layout]) *)
  totals : R.tally -> unit;  (** driver counters of the whole pass *)
}

(* What the library's replicate path reports for a larger sample of
   queries from the same seed: the timed pass repeats a few identical
   queries, this covers enough distinct ones for the correct share and
   the mean simulated latency to be steady across seeds. *)
type summary = { runs : int; correct_share : float; mean_latency : float }

type instance = {
  queries_per_call : int;
  new_pass : mode -> pass;
  reference : unit -> unit;
      (** run the library's replicate path the passes are compared
          with (once; later calls are free) *)
  summary : unit -> summary;
}

type t = {
  name : string;
  driver : string;  (** the driver module whose self time the trace reports *)
  setup : ?tally:R.tally -> smoke:bool -> int -> instance;
}

(* Fold per-part summaries, weighting each by its query count. *)
let combine parts =
  let runs = List.fold_left (fun acc s -> acc + s.runs) 0 parts in
  let weighted f =
    List.fold_left (fun acc s -> acc +. (f s *. float_of_int s.runs)) 0.0 parts
    /. float_of_int runs
  in
  {
    runs;
    correct_share = weighted (fun s -> s.correct_share);
    mean_latency = weighted (fun s -> s.mean_latency);
  }

let of_engine (a : Engine.aggregate) =
  {
    runs = a.Engine.runs;
    correct_share = a.Engine.correct_rate;
    mean_latency = a.Engine.mean_latency;
  }

let dummy_timing () = Engine.make_timing ~jobs:1 ~runs:1 (Clock.now ())
let add_gap gaps k item = gaps.(k) <- gaps.(k) @ [ item ]

let fold_answers dag answers =
  List.iter
    (fun (winner, loser) -> Dag.add_answer_unchecked dag ~winner ~loser)
    answers

(* A simulated round replayed from the rng state right after its
   selector call: RWL votes first, then the platform, then the DAG —
   the engine's documented [Wait_all] draw order. Returns the three
   items and the replayed simulated latency. *)
let replay_round tally ~scratch ~platform ~rwl ~truth ~dag ~posted
    (e : R.event) =
  let rng = Rng.copy e.R.rng_after in
  let outcome, rwl_item =
    R.timed R.Rwl (fun () -> Rwl.resolve rng rwl ~truth e.R.pairs)
  in
  let raw = rwl.Rwl.votes * posted in
  let latency, platform_item =
    R.timed R.Platform (fun () ->
        Platform.batch_latency ~scratch platform rng raw)
  in
  let (), dag_item =
    R.timed R.Answer_dag (fun () -> fold_answers dag outcome.Rwl.answers)
  in
  R.count tally "platform.calls" 1.0;
  R.count tally "platform.raw_questions" (float_of_int raw);
  R.count tally "rwl.calls" 1.0;
  R.count tally "rwl.raw_votes" (float_of_int outcome.Rwl.raw_questions);
  R.count tally "answer_dag.answers_added"
    (float_of_int (List.length outcome.Rwl.answers));
  ([ rwl_item; platform_item; dag_item ], latency)

(* The answer-DAG calls a driver makes around a round, outside the
   answer folding: the candidate scan before selection and the
   survivor count after. *)
let dag_call f = snd (R.timed R.Answer_dag f)

let candidates_item dag = dag_call (fun () -> ignore (Dag.candidates dag))
let count_item dag = dag_call (fun () -> ignore (Dag.candidate_count dag))

(* Picking the result once the loop ends: the survivors, and the
   score ranking when more than one is left. *)
let finish_item dag =
  dag_call (fun () ->
      match Dag.remaining_candidates dag with
      | [ _ ] -> ()
      | _ -> ignore (Crowdmax_graph.Scoring.ranked_candidates dag))

let cache_counts tally cache =
  R.count tally "tdp.cache_hits" (float_of_int (Tdp.Cache.hits cache));
  R.count tally "tdp.cache_misses" (float_of_int (Tdp.Cache.misses cache))

let check_round_latency tally ~replayed ~live =
  if not (Float.equal replayed live) then
    tally.R.replay_mismatches <- tally.R.replay_mismatches + 1

(* ---------------------------------------------------------------- *)
(* Engine workloads: engine-sim and paper-sweep.                     *)

type point = {
  problem : Problem.t;
  point_seed : int;
  source : Engine.answer_source;
  config : Selection.t -> Engine.config;
  reference : Engine.aggregate Lazy.t;
  summary : Engine.aggregate Lazy.t;
}

let make_point ?tally ~cache ~source ~runs ~summary_runs ~seed problem =
  let plan = R.solve ?tally ~cache problem in
  let config selection =
    Engine.config ~source ~deadline:Engine.Wait_all
      ~allocation:plan.Tdp.allocation ~selection
      ~latency_model:problem.Problem.latency ()
  in
  {
    problem;
    point_seed = seed;
    source;
    config;
    reference =
      lazy
        (Engine.replicate ~jobs:1 ~runs ~seed (config Selection.tournament)
           ~elements:problem.Problem.elements);
    summary =
      lazy
        (Engine.replicate ~jobs:1 ~runs:summary_runs ~seed
           (config Selection.tournament) ~elements:problem.Problem.elements);
  }

let dummy_engine_result =
  {
    Engine.chosen = -1;
    correct = false;
    singleton = false;
    rounds_run = 0;
    questions_posted = 0;
    total_latency = 0.0;
    trace = [];
  }

let engine_outcome (p : point) (r : Engine.result) =
  {
    elements = p.problem.Problem.elements;
    budget = p.problem.Problem.budget;
    chosen = r.Engine.chosen;
    correct = r.Engine.correct;
    singleton = r.Engine.singleton;
    oracle = (match p.source with Engine.Oracle -> true | _ -> false);
    questions = r.Engine.questions_posted;
    latency = r.Engine.total_latency;
    finite =
      Float.is_finite r.Engine.total_latency
      && List.for_all
           (fun (t : Engine.round_record) -> Float.is_finite t.round_latency)
           r.Engine.trace;
  }

(* Calls visit the points in [order]; call [i] is run [i mod runs] of
   point [order.(i / runs)]. *)
let engine_instance ~runs ~order (points : point array) =
  let new_pass mode =
    (* A runner per pass: its simulation scratch grows on first use,
       and a fresh one makes every pass allocate identically. *)
    let runners =
      Array.map
        (fun p -> Engine.runner ~metrics:mode.metrics (p.config (selection_of mode)))
        points
    in
    let rngs =
      Array.map (fun p -> Engine.per_run_rngs ~runs ~seed:p.point_seed) points
    in
    let truths =
      Array.mapi
        (fun g p ->
          Array.map
            (fun rng -> Ground_truth.random rng p.problem.Problem.elements)
            rngs.(g))
        points
    in
    let results =
      Array.map (fun _ -> Array.make runs dummy_engine_result) points
    in
    let calls = runs * Array.length order in
    let call i =
      let g = order.(i / runs) and r = i mod runs in
      results.(g).(r) <- runners.(g) rngs.(g).(r) truths.(g).(r)
    in
    let finish () =
      let outcomes =
        Array.init calls (fun i ->
            let g = order.(i / runs) in
            engine_outcome points.(g) results.(g).(i mod runs))
      in
      let check =
        Array.to_list order
        |> List.map (fun g ->
               let p = points.(g) in
               let agg =
                 Engine.aggregate_results ~runs ~timing:(dummy_timing ())
                   results.(g)
               in
               if Engine.equal_stats agg (Lazy.force p.reference) then None
               else
                 Some
                   (Printf.sprintf
                      "c0=%d b=%d: outcomes differ from Engine.replicate"
                      p.problem.Problem.elements p.problem.Problem.budget))
        |> List.filter_map Fun.id
      in
      ( outcomes,
        match check with [] -> Ok () | e :: _ -> Error e )
    in
    let scratch = lazy (Platform.scratch ()) in
    let replay tally i (events : R.event array) =
      let g = order.(i / runs) and r = i mod runs in
      let p = points.(g) in
      let result = results.(g).(r) in
      let truth = truths.(g).(r) in
      let trace = Array.of_list result.Engine.trace in
      let n = Array.length events in
      let gaps = Array.make (n + 1) [] in
      if Array.length trace <> n then
        tally.R.replay_mismatches <- tally.R.replay_mismatches + 1
      else begin
        let dag, create_item =
          R.timed R.Answer_dag (fun () ->
              Dag.create ~edge_capacity:p.problem.Problem.budget
                p.problem.Problem.elements)
        in
        add_gap gaps 0 create_item;
        Array.iteri
          (fun k (e : R.event) ->
            add_gap gaps k (candidates_item dag);
            let rd = trace.(k) in
            let posted = rd.Engine.distinct_questions + rd.Engine.padded_questions in
            R.count tally "engine.posted" (float_of_int posted);
            R.count tally "engine.padded" (float_of_int rd.Engine.padded_questions);
            match p.source with
            | Engine.Simulated { platform; rwl } ->
                let items, latency =
                  replay_round tally ~scratch:(Lazy.force scratch) ~platform
                    ~rwl ~truth ~dag ~posted e
                in
                check_round_latency tally ~replayed:latency
                  ~live:rd.Engine.round_latency;
                List.iter (add_gap gaps (k + 1)) items;
                add_gap gaps (k + 1) (count_item dag)
            | Engine.Simulated_pool _ ->
                invalid_arg "Workload: no workload replays Simulated_pool"
            | Engine.Oracle ->
                (* The oracle answers from the ground truth. *)
                let ranks = Ground_truth.ranks truth in
                let (), item =
                  R.timed R.Answer_dag (fun () ->
                      List.iter
                        (fun (a, b) ->
                          if ranks.(a) > ranks.(b) then
                            Dag.add_answer_unchecked dag ~winner:a ~loser:b
                          else Dag.add_answer_unchecked dag ~winner:b ~loser:a)
                        e.R.pairs)
                in
                R.count tally "answer_dag.answers_added"
                  (float_of_int (List.length e.R.pairs));
                add_gap gaps (k + 1) item;
                add_gap gaps (k + 1) (count_item dag))
          events;
        add_gap gaps n (finish_item dag)
      end;
      gaps
    in
    { calls; call; finish; replay; totals = (fun _ -> ()) }
  in
  let reference () =
    Array.iter (fun g -> ignore (Lazy.force points.(g).reference)) order
  in
  let summary () =
    combine
      (List.map
         (fun g -> of_engine (Lazy.force points.(g).summary))
         (Array.to_list order))
  in
  { queries_per_call = 1; new_pass; reference; summary }

let rwl_15 = { Rwl.votes = 3; error = Worker.Uniform 0.15 }

(* The ROADMAP's reference configuration: simulated platform, c0=500,
   b=2000, 3-vote RWL at 15% error, Wait_all, tournament selection. The
   plan is solved once, in set-up. *)
let engine_sim =
  let setup ?tally ~smoke seed =
    let runs, summary_runs = if smoke then (3, 4) else (250, 1000) in
    let platform = Platform.create () in
    let source = Engine.Simulated { platform; rwl = rwl_15 } in
    let problem =
      Problem.create ~elements:500 ~budget:2000 ~latency:Common.estimated_model
    in
    let cache = Tdp.Cache.create () in
    let point =
      make_point ?tally ~cache ~source ~runs ~summary_runs ~seed problem
    in
    Option.iter (fun t -> cache_counts t cache) tally;
    engine_instance ~runs ~order:[| 0 |] [| point |]
  in
  { name = "engine-sim"; driver = "engine"; setup }

(* The traffic of `experiment fig13/fig14` and Sec. 6: error-free
   workers over the (c0, b) grid c0 in {100, 250, 500, 1000} x b in
   {2, 4, 8}·c0. All plans go through one shared cache in set-up,
   largest collection first so one table build covers the grid. The
   seed fixes each point's run seed and the order calls visit the
   points in. *)
let grid =
  List.concat_map
    (fun c0 -> List.map (fun m -> (c0, m * c0)) [ 2; 4; 8 ])
    [ 1000; 500; 250; 100 ]

let paper_sweep =
  let setup ?tally ~smoke seed =
    let runs, summary_runs = if smoke then (1, 2) else (20, 40) in
    let master = Rng.create seed in
    let cache = Tdp.Cache.create () in
    let points =
      Array.of_list grid
      |> Array.map (fun (elements, budget) ->
             let problem =
               Problem.create ~elements ~budget ~latency:Common.estimated_model
             in
             make_point ?tally ~cache ~source:Engine.Oracle ~runs ~summary_runs
               ~seed:(Rng.int master 1_000_000_000)
               problem)
    in
    Option.iter (fun t -> cache_counts t cache) tally;
    let order = Rng.permutation master (Array.length points) in
    let order = if smoke then Array.sub order 0 3 else order in
    engine_instance ~runs ~order points
  in
  { name = "paper-sweep"; driver = "engine"; setup }

(* ---------------------------------------------------------------- *)
(* adaptive-drift: the Fig_adapt shape.                              *)

let dummy_adaptive_result model =
  {
    Adaptive.engine_result = dummy_engine_result;
    replans = 0;
    refits = 0;
    drift_detected = 0;
    replans_on_drift = 0;
    final_model = model;
    observations = [];
  }

(* The most recent [k] observations up to round [upto], newest first. *)
let window_upto (obs : Estimate.observation array) ~upto k =
  List.init (min k (upto + 1)) (fun j -> obs.(upto - j))

(* Adaptive.run at c0=1000, b=2500, planned with the fast platform's
   offline calibration; the worker supply drops to 8% at round 1 and
   the On_drift loop re-fits. One plan cache serves every query of a
   pass, as Adaptive.replicate shares one per domain. *)
let adaptive_drift =
  let setup ?tally:_ ~smoke seed =
    let runs, summary_runs = if smoke then (2, 3) else (40, 320) in
    let fast = Platform.create () in
    let slow = Fig_adapt.slow_platform Fig_adapt.supply_scale in
    let model = Fig_adapt.calibrate fast in
    let problem = Problem.create ~elements:1000 ~budget:2500 ~latency:model in
    let source = Engine.Simulated { platform = fast; rwl = rwl_15 } in
    let shift_round = 1 in
    let source_shift =
      (shift_round, Engine.Simulated { platform = slow; rwl = rwl_15 })
    in
    let refit = Adaptive.On_drift Fig_adapt.drift_threshold in
    let replicate runs =
      Adaptive.replicate ~jobs:1 ~source ~refit ~source_shift ~runs ~seed
        ~problem ~selection:Selection.tournament ()
    in
    let reference = lazy (replicate runs) in
    let summary () =
      of_engine (replicate summary_runs).Adaptive.engine_aggregate
    in
    let new_pass mode =
      let selection = selection_of mode in
      let cache = Tdp.Cache.create () in
      let scratch = Platform.scratch () in
      let rngs = Engine.per_run_rngs ~runs ~seed in
      let truths =
        Array.map (fun rng -> Ground_truth.random rng problem.Problem.elements) rngs
      in
      let results = Array.make runs (dummy_adaptive_result model) in
      let call i =
        results.(i) <-
          Adaptive.run ~cache ~source ~refit ~source_shift ~metrics:mode.metrics
            ~scratch rngs.(i) ~problem ~selection truths.(i)
      in
      let finish () =
        let outcomes =
          Array.map
            (fun (r : Adaptive.result) ->
              let e = r.Adaptive.engine_result in
              {
                elements = problem.Problem.elements;
                budget = problem.Problem.budget;
                chosen = e.Engine.chosen;
                correct = e.Engine.correct;
                singleton = e.Engine.singleton;
                oracle = false;
                questions = e.Engine.questions_posted;
                latency = e.Engine.total_latency;
                finite =
                  Float.is_finite e.Engine.total_latency
                  && List.for_all
                       (fun (t : Engine.round_record) ->
                         Float.is_finite t.round_latency)
                       e.Engine.trace
                  && List.for_all
                       (fun (o : Estimate.observation) ->
                         Float.is_finite o.Estimate.seconds)
                       r.Adaptive.observations;
              })
            results
        in
        let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
        let expect = Lazy.force reference in
        let same =
          Engine.equal_stats
            (Engine.aggregate_results ~runs ~timing:(dummy_timing ())
               (Array.map (fun r -> r.Adaptive.engine_result) results))
            expect.Adaptive.engine_aggregate
          && sum (fun r -> r.Adaptive.replans) = expect.Adaptive.total_replans
          && sum (fun r -> r.Adaptive.refits) = expect.Adaptive.total_refits
          && sum (fun r -> r.Adaptive.drift_detected)
             = expect.Adaptive.total_drift_detected
          && sum (fun r -> r.Adaptive.replans_on_drift)
             = expect.Adaptive.total_replans_on_drift
        in
        ( outcomes,
          if same then Ok ()
          else Error "outcomes differ from Adaptive.replicate" )
      in
      (* The replay plans through its own cache, in call order, so its
         solves meet the same cache states the live ones did. *)
      let replay_cache = Tdp.Cache.create () in
      let probe_cache = Tdp.Cache.create () in
      let stale = ref false in
      let replay_scratch = Platform.scratch () in
      let replay tally i (events : R.event array) =
        let result = results.(i) in
        let er = result.Adaptive.engine_result in
        let trace = Array.of_list er.Engine.trace in
        let n = Array.length events in
        let gaps = Array.make (n + 1) [] in
        R.count tally "adaptive.replans" (float_of_int result.Adaptive.replans);
        R.count tally "latency.refits" (float_of_int result.Adaptive.refits);
        if Array.length trace <> n then
          tally.R.replay_mismatches <- tally.R.replay_mismatches + 1
        else begin
          let truth = truths.(i) in
          let dag, create_item =
            R.timed R.Answer_dag (fun () -> Dag.create problem.Problem.elements)
          in
          add_gap gaps 0 create_item;
          let obs = Array.of_list (List.rev result.Adaptive.observations) in
          let current = ref problem.Problem.latency in
          let remaining = ref problem.Problem.budget in
          for k = 0 to n - 1 do
            let e = events.(k) in
            add_gap gaps k (candidates_item dag);
            let solve m =
              R.timed R.Tdp (fun () ->
                  Tdp.solve ~cache:replay_cache
                    (Problem.create ~elements:e.R.candidates ~budget:!remaining
                       ~latency:m))
            in
            let matches (sol : Tdp.solution) =
              let first =
                match Allocation.round_budgets sol.Tdp.allocation with
                | q :: _ -> min q !remaining
                | [] -> 0
              in
              first = e.R.budget
              && k + Allocation.rounds sol.Tdp.allocation = e.R.total_rounds
            in
            (* Planning replays through [replay_cache] only when the
               model is known; [stale] marks that the live cache last
               planned with a model the replay could not rebuild, so
               the next known-model solve starts cold, as it did live. *)
            let planned =
              match if !stale then None else Some (solve !current) with
              | Some (sol, item) when matches sol -> Some (sol, item)
              | _ -> (
                  let probe m =
                    matches
                      (Tdp.solve ~cache:probe_cache
                         (Problem.create ~elements:e.R.candidates
                            ~budget:!remaining ~latency:m))
                  in
                  let final = result.Adaptive.final_model in
                  let known =
                    if probe !current then Some !current
                    else if (not (Model.equal final !current)) && probe final
                    then Some final
                    else None
                  in
                  match known with
                  | None ->
                      stale := true;
                      None
                  | Some m ->
                      if not (Model.equal m !current) && k > 0
                         && k - 1 < Array.length obs
                      then begin
                        (* The re-fit that installed [m] ran on the
                           previous round's window. *)
                        let window = window_upto obs ~upto:(k - 1) 8 in
                        let previous = !current in
                        let (), refit_item =
                          R.timed R.Latency (fun () ->
                              match Estimate.refit ~like:previous window with
                              | _ -> ()
                              | exception Invalid_argument _ -> ())
                        in
                        add_gap gaps k refit_item
                      end;
                      current := m;
                      if !stale then Tdp.Cache.clear replay_cache;
                      stale := false;
                      Some (solve m))
            in
            R.count tally "tdp.calls" 1.0;
            (match planned with
            | Some (sol, item) ->
                R.count tally "tdp.states_settled"
                  (float_of_int sol.Tdp.states_visited);
                tally.R.solve_ms <- item.R.ms :: tally.R.solve_ms;
                add_gap gaps k item
            | None ->
                (* Planned against an intermediate re-fit the replay
                   cannot rebuild: the solve takes what its gap has
                   left, by the loop's per-round schedule. *)
                tally.R.gap_filled <- tally.R.gap_filled + 1;
                add_gap gaps k { R.layer = R.Tdp; ms = Float.infinity; words = 0.0 });
            let platform = if k < shift_round then fast else slow in
            let posted = List.length e.R.pairs in
            let items, latency =
              replay_round tally ~scratch:replay_scratch ~platform ~rwl:rwl_15
                ~truth ~dag ~posted e
            in
            check_round_latency tally ~replayed:latency
              ~live:trace.(k).Engine.round_latency;
            List.iter (add_gap gaps (k + 1)) items;
            add_gap gaps (k + 1) (count_item dag);
            remaining := !remaining - posted;
            (* The drift test on the round's observation window. *)
            if k < Array.length obs then begin
              let window = window_upto obs ~upto:k 8 in
              let model = !current in
              let _, item =
                R.timed R.Latency (fun () -> Estimate.residual_rms model window)
              in
              add_gap gaps (k + 1) item
            end
          done;
          add_gap gaps n (finish_item dag)
        end;
        gaps
      in
      let totals tally = cache_counts tally cache in
      { calls = runs; call; finish; replay; totals }
    in
    {
      queries_per_call = 1;
      new_pass;
      reference = (fun () -> ignore (Lazy.force reference));
      summary;
    }
  in
  { name = "adaptive-drift"; driver = "adaptive"; setup }

(* ---------------------------------------------------------------- *)
(* serve-fleet32: the query server over one shared marketplace.      *)

(* Fig_server's six-query fleet: label, c0, budget, votes, deadline
   (Fixed quotes from the solo model), admission step. *)
let fleet_templates base =
  let d q = Model.eval base q in
  [|
    ("alpha", 400, 3200, 3, Engine.Wait_all, 0);
    ("bravo", 300, 2400, 3, Engine.Fixed (d 150), 0);
    ("charlie", 200, 500, 3, Engine.Quantile 0.9, 1);
    ("delta", 350, 2800, 3, Engine.Wait_all, 2);
    ("echo", 250, 600, 2, Engine.Fixed (d 120), 1);
    ("foxtrot", 300, 2400, 3, Engine.Quantile 0.95, 3);
  |]

(* [n] queries repeating the six templates; group [g] of six is
   admitted [2 g] fleet steps after the first. The seed shuffles the
   spec order (and so the order queries plan, select and resolve in
   within a step). *)
let fleet_specs ~seed base n =
  let templates = fleet_templates base in
  let specs =
    Array.init n (fun j ->
        let label, elements, budget, votes, deadline, admit =
          templates.(j mod Array.length templates)
        in
        let group = j / Array.length templates in
        Server.query_spec
          ~label:(Printf.sprintf "%s-%d" label group)
          ~votes ~deadline ~admit_step:(admit + (2 * group)) ~elements ~budget ())
  in
  Rng.shuffle_in_place (Rng.create seed) specs;
  specs

(* Server.replicate's fold, over the runs of one pass. *)
let server_aggregate nq (results : Server.result array) =
  let runs = Array.length results in
  let fruns = float_of_int runs in
  let meanf f = Array.fold_left (fun acc r -> acc +. f r) 0.0 results /. fruns in
  let sumi f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  let count_q p =
    sumi (fun (r : Server.result) ->
        Array.fold_left
          (fun acc qr -> if p qr then acc + 1 else acc)
          0 r.Server.queries)
  in
  {
    Server.runs;
    mean_fleet_latency = meanf (fun r -> r.Server.fleet_mean_latency);
    mean_makespan = meanf (fun r -> r.Server.makespan);
    mean_fairness = meanf (fun r -> r.Server.fairness);
    mean_throughput = meanf (fun r -> r.Server.throughput);
    correct_rate =
      float_of_int (count_q (fun q -> q.Server.correct))
      /. (fruns *. float_of_int nq);
    singleton_rate =
      float_of_int (count_q (fun q -> q.Server.singleton))
      /. (fruns *. float_of_int nq);
    total_contention_replans = sumi (fun r -> r.Server.contention_replans);
    total_deadline_hits =
      sumi (fun r ->
          Array.fold_left
            (fun acc (q : Server.query_report) -> acc + q.Server.deadline_hits)
            0 r.Server.queries);
    per_query_mean_latency =
      Array.init nq (fun i ->
          Array.fold_left
            (fun acc (r : Server.result) -> acc +. r.Server.queries.(i).Server.latency)
            0.0 results
          /. fruns);
  }

let dummy_server_result =
  {
    Server.queries = [||];
    steps = 0;
    makespan = 0.0;
    fleet_mean_latency = 0.0;
    throughput = 0.0;
    fairness = 0.0;
    contention_replans = 0;
  }

let fleet_size = 32

let serve_fleet32 =
  let setup ?tally:_ ~smoke seed =
    let runs = if smoke then 2 else 40 in
    let platform = Platform.create () in
    let base = Fig_server.calibrate_base platform in
    let contention = Fig_server.calibrate_beta platform base in
    let specs = fleet_specs ~seed base fleet_size in
    let nq = Array.length specs in
    let pick = Platform.Proportional in
    let replicate runs =
      Server.replicate ~jobs:1 ~contention ~pick ~platform ~latency:base
        ~selection:Selection.tournament ~runs ~seed specs ()
    in
    let reference = lazy (replicate runs) in
    let summary () =
      let a = Lazy.force reference in
      {
        runs = runs * nq;
        correct_share = a.Server.correct_rate;
        mean_latency = a.Server.mean_fleet_latency;
      }
    in
    let new_pass mode =
      let selection = selection_of mode in
      let scratch = Platform.scratch () in
      let rngs = Engine.per_run_rngs ~runs ~seed in
      let truths =
        Array.map
          (fun rng ->
            Array.map
              (fun (s : Server.query_spec) -> Ground_truth.random rng s.Server.elements)
              specs)
          rngs
      in
      let results = Array.make runs dummy_server_result in
      let call i =
        results.(i) <-
          Server.run ~metrics:mode.metrics ~scratch ~contention ~pick ~platform
            ~latency:base ~selection rngs.(i) specs truths.(i)
      in
      let finish () =
        let outcomes =
          Array.concat
            (Array.to_list
               (Array.map
                  (fun (r : Server.result) ->
                    let fleet_finite =
                      List.for_all Float.is_finite
                        [
                          r.Server.makespan;
                          r.Server.fleet_mean_latency;
                          r.Server.throughput;
                          r.Server.fairness;
                        ]
                    in
                    Array.mapi
                      (fun q (qr : Server.query_report) ->
                        {
                          elements = specs.(q).Server.elements;
                          budget = specs.(q).Server.budget;
                          chosen = qr.Server.chosen;
                          correct = qr.Server.correct;
                          singleton = qr.Server.singleton;
                          oracle = false;
                          questions = qr.Server.questions;
                          latency = qr.Server.latency;
                          finite =
                            fleet_finite
                            && Float.is_finite qr.Server.latency
                            && Float.is_finite qr.Server.sojourn
                            && Float.is_finite qr.Server.admitted_at;
                        })
                      r.Server.queries)
                  results))
        in
        ( outcomes,
          if
            Array.for_all
              (fun (r : Server.result) -> Array.length r.Server.queries = nq)
              results
            && Server.equal_aggregate (server_aggregate nq results)
                 (Lazy.force reference)
          then Ok ()
          else Error "outcomes differ from Server.replicate" )
      in
      let replay_scratch = Platform.scratch () in
      let solo = Contention.base contention in
      let replay tally i (events : R.event array) =
        let result = results.(i) in
        let n = Array.length events in
        let gaps = Array.make (n + 1) [] in
        let rounds =
          Array.map (fun (q : Server.query_report) -> q.Server.rounds) result.Server.queries
        in
        R.count tally "server.contention_replans"
          (float_of_int result.Server.contention_replans);
        Array.iter
          (fun (q : Server.query_report) ->
            R.count tally "server.rounds" (float_of_int q.Server.rounds);
            R.count tally "server.deadline_hits" (float_of_int q.Server.deadline_hits))
          result.Server.queries;
        if Array.fold_left ( + ) 0 rounds <> n then
          tally.R.replay_mismatches <- tally.R.replay_mismatches + 1
        else begin
          (* Query [q] posts in every step from its admission until it
             finishes, so the steps it selected in follow from its
             admission step and round count. *)
          let active q step =
            let a = specs.(q).Server.admit_step in
            a <= step && step < a + rounds.(q)
          in
          let last_step =
            Array.fold_left max 0
              (Array.mapi (fun q (s : Server.query_spec) -> s.Server.admit_step + rounds.(q)) specs)
          in
          let caches = Array.init nq (fun _ -> Tdp.Cache.create ()) in
          let dags =
            Array.map (fun (s : Server.query_spec) -> Dag.create s.Server.elements) specs
          in
          let remaining = Array.map (fun (s : Server.query_spec) -> s.Server.budget) specs in
          let last_posted = Array.make nq None in
          let latency_sum = Array.make nq 0.0 in
          let next = ref 0 in
          let pending = ref [] in
          for step = 0 to last_step - 1 do
            let posting = List.filter (fun q -> active q step) (List.init nq Fun.id) in
            if posting <> [] then begin
              let load q =
                specs.(q).Server.votes
                * (match last_posted.(q) with
                  | Some p -> p
                  | None -> specs.(q).Server.elements - 1)
              in
              let total = List.fold_left (fun acc q -> acc + load q) 0 posting in
              gaps.(!next) <- !pending;
              (* Plan + select, in spec order. *)
              let live =
                List.map
                  (fun q ->
                    let e = events.(!next) in
                    add_gap gaps !next (count_item dags.(q));
                    add_gap gaps !next (candidates_item dags.(q));
                    let model, latency_item =
                      R.timed R.Latency (fun () ->
                          Contention.effective contention
                            ~other_load:(total - load q))
                    in
                    let sol, tdp_item =
                      R.timed R.Tdp (fun () ->
                          Tdp.solve ~cache:caches.(q)
                            (Problem.create ~elements:e.R.candidates
                               ~budget:remaining.(q) ~latency:model))
                    in
                    R.count tally "tdp.states_settled"
                      (float_of_int sol.Tdp.states_visited);
                    let first =
                      match Allocation.round_budgets sol.Tdp.allocation with
                      | b :: _ -> min b remaining.(q)
                      | [] -> 0
                    in
                    if first <> e.R.budget then
                      tally.R.replay_mismatches <- tally.R.replay_mismatches + 1;
                    R.count tally "tdp.calls" 1.0;
                    tally.R.solve_ms <- tdp_item.R.ms :: tally.R.solve_ms;
                    add_gap gaps !next latency_item;
                    add_gap gaps !next tdp_item;
                    incr next;
                    (q, e))
                  posting
                |> Array.of_list
              in
              (* One marketplace round, then votes per query. *)
              let posted = Array.map (fun (_, e) -> List.length e.R.pairs) live in
              let qs =
                Array.mapi (fun j (q, _) -> specs.(q).Server.votes * posted.(j)) live
              in
              let deadlines =
                Array.mapi
                  (fun j (q, _) ->
                    match
                      Engine.round_deadline ~deadline:specs.(q).Server.deadline
                        ~latency_model:solo ~posted:(max 1 posted.(j))
                    with
                    | None -> Float.infinity
                    | Some d -> d)
                  live
              in
              let counts = Array.map (fun p -> Array.make p 0) posted in
              let on_complete ~query idx _time =
                let slot = idx mod posted.(query) in
                counts.(query).(slot) <- counts.(query).(slot) + 1
              in
              let rng = Rng.copy (snd live.(Array.length live - 1)).R.rng_after in
              let reports, platform_item =
                R.timed R.Platform (fun () ->
                    Platform.simulate_shared ~deadlines ~scratch:replay_scratch
                      platform rng ~pick ~on_complete qs)
              in
              R.count tally "platform.calls" 1.0;
              R.count tally "platform.raw_questions"
                (float_of_int (Array.fold_left ( + ) 0 qs));
              let items = ref [ platform_item ] in
              Array.iteri
                (fun j (q, (e : R.event)) ->
                  let rwl =
                    { Rwl.votes = specs.(q).Server.votes; error = specs.(q).Server.error }
                  in
                  let outcome, rwl_item =
                    R.timed R.Rwl (fun () ->
                        Rwl.resolve ~votes_received:counts.(j) rng rwl
                          ~truth:truths.(i).(q) e.R.pairs)
                  in
                  let (), dag_item =
                    R.timed R.Answer_dag (fun () ->
                        fold_answers dags.(q) outcome.Rwl.answers)
                  in
                  R.count tally "rwl.calls" 1.0;
                  R.count tally "rwl.raw_votes"
                    (float_of_int outcome.Rwl.raw_questions);
                  R.count tally "answer_dag.answers_added"
                    (float_of_int (List.length outcome.Rwl.answers));
                  items := dag_item :: rwl_item :: !items;
                  latency_sum.(q) <- latency_sum.(q) +. reports.(j).Platform.latency;
                  remaining.(q) <- remaining.(q) - posted.(j);
                  last_posted.(q) <- Some posted.(j))
                live;
              pending := List.rev !items
            end
          done;
          gaps.(n) <- !pending @ List.map finish_item (Array.to_list dags);
          Array.iter (cache_counts tally) caches;
          Array.iteri
            (fun q (qr : Server.query_report) ->
              check_round_latency tally ~replayed:latency_sum.(q)
                ~live:qr.Server.latency)
            result.Server.queries
        end;
        gaps
      in
      { calls = runs; call; finish; replay; totals = (fun _ -> ()) }
    in
    {
      queries_per_call = nq;
      new_pass;
      reference = (fun () -> ignore (Lazy.force reference));
      summary;
    }
  in
  { name = "serve-fleet32"; driver = "server"; setup }

let all = [ engine_sim; adaptive_drift; serve_fleet32; paper_sweep ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
