module A = Crowdmax_runtime.Adaptive
module E = Crowdmax_runtime.Engine
module S = Crowdmax_selection.Selection
module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module G = Crowdmax_crowd.Ground_truth
module Rng = Crowdmax_util.Rng

let tc = Alcotest.test_case
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let model = Model.paper_mturk

let test_finds_max () =
  let rng = Rng.create 3 in
  for _ = 1 to 20 do
    let c0 = 2 + Rng.int rng 80 in
    let problem = Problem.create ~elements:c0 ~budget:(5 * c0) ~latency:model in
    let truth = G.random rng c0 in
    let r = A.run rng ~problem ~selection:S.tournament truth in
    check_bool "correct" true r.A.engine_result.E.correct;
    check_bool "singleton" true r.A.engine_result.E.singleton;
    check_bool "replanned each round" true
      (r.A.replans >= r.A.engine_result.E.rounds_run)
  done

let test_never_worse_than_static () =
  let rng = Rng.create 5 in
  for _ = 1 to 15 do
    let c0 = 5 + Rng.int rng 60 in
    let b = c0 - 1 + Rng.int rng 400 in
    let problem = Problem.create ~elements:c0 ~budget:b ~latency:model in
    let static = Tdp.solve problem in
    let truth = G.random rng c0 in
    let r = A.run rng ~problem ~selection:S.tournament truth in
    check_bool "adaptive <= static" true
      (r.A.engine_result.E.total_latency <= static.Tdp.latency +. 1e-6)
  done

let test_budget_respected () =
  let rng = Rng.create 7 in
  for _ = 1 to 15 do
    let c0 = 5 + Rng.int rng 40 in
    let b = c0 - 1 + Rng.int rng 200 in
    let problem = Problem.create ~elements:c0 ~budget:b ~latency:model in
    let truth = G.random rng c0 in
    let r = A.run rng ~problem ~selection:S.tournament truth in
    check_bool "within budget" true (r.A.engine_result.E.questions_posted <= b)
  done

let test_single_element () =
  let rng = Rng.create 9 in
  let problem = Problem.create ~elements:1 ~budget:0 ~latency:model in
  let truth = G.random rng 1 in
  let r = A.run rng ~problem ~selection:S.tournament truth in
  check_int "no rounds" 0 r.A.engine_result.E.rounds_run;
  check_bool "correct" true r.A.engine_result.E.correct

let test_truth_size_mismatch () =
  let rng = Rng.create 11 in
  let problem = Problem.create ~elements:5 ~budget:10 ~latency:model in
  let truth = G.random rng 6 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Adaptive.run: ground truth size mismatch") (fun () ->
      ignore (A.run rng ~problem ~selection:S.tournament truth))

let test_replicate () =
  let problem = Problem.create ~elements:30 ~budget:150 ~latency:model in
  let agg = A.replicate ~runs:20 ~seed:13 ~problem ~selection:S.tournament () in
  Alcotest.check (Alcotest.float 1e-9) "all correct" 1.0
    agg.A.engine_aggregate.E.correct_rate;
  check_bool "positive latency" true
    (agg.A.engine_aggregate.E.mean_latency > 0.0)

let test_replicate_parallel_deterministic () =
  let problem = Problem.create ~elements:25 ~budget:120 ~latency:model in
  let base = A.replicate ~runs:12 ~seed:21 ~problem ~selection:S.tournament () in
  List.iter
    (fun jobs ->
      let agg =
        A.replicate ~jobs ~runs:12 ~seed:21 ~problem ~selection:S.tournament ()
      in
      check_bool
        (Printf.sprintf "jobs=%d matches sequential" jobs)
        true
        (E.equal_stats base.A.engine_aggregate agg.A.engine_aggregate))
    [ 2; 4 ]

(* Replans through a shared plan cache must be invisible in the results:
   same rng stream, same truth, bit-identical run — even when the cache
   arrives pre-warmed by solves at other sizes and budgets. *)
let test_run_shared_cache_bit_identical () =
  let rng = Rng.create 17 in
  for _ = 1 to 10 do
    let c0 = 5 + Rng.int rng 50 in
    let b = c0 - 1 + Rng.int rng 300 in
    let seed = Rng.int rng 10000 in
    let problem = Problem.create ~elements:c0 ~budget:b ~latency:model in
    let truth = G.random (Rng.create (seed + 1)) c0 in
    let fresh = A.run (Rng.create seed) ~problem ~selection:S.tournament truth in
    let cache = Tdp.Cache.create () in
    (* pre-warm with unrelated instances *)
    ignore (Tdp.solve ~cache (Problem.create ~elements:60 ~budget:400 ~latency:model));
    ignore (Tdp.solve ~cache (Problem.create ~elements:c0 ~budget:(2 * b) ~latency:model));
    let cached =
      A.run ~cache (Rng.create seed) ~problem ~selection:S.tournament truth
    in
    check_bool "latency bit-identical" true
      (Float.equal fresh.A.engine_result.E.total_latency
         cached.A.engine_result.E.total_latency);
    check_int "questions" fresh.A.engine_result.E.questions_posted
      cached.A.engine_result.E.questions_posted;
    check_int "rounds" fresh.A.engine_result.E.rounds_run
      cached.A.engine_result.E.rounds_run;
    check_int "chosen" fresh.A.engine_result.E.chosen
      cached.A.engine_result.E.chosen;
    check_int "replans" fresh.A.replans cached.A.replans
  done

(* The ISSUE's regression pin: replicate (whose per-worker plan caches
   are always on) yields the same aggregates at jobs = 1 (one shared
   cache across all runs) and jobs = 4 (one cache per chunk). *)
let test_replicate_cached_jobs_invariant () =
  let problem = Problem.create ~elements:40 ~budget:260 ~latency:model in
  let sequential =
    A.replicate ~jobs:1 ~runs:12 ~seed:29 ~problem ~selection:S.tournament ()
  in
  let parallel =
    A.replicate ~jobs:4 ~runs:12 ~seed:29 ~problem ~selection:S.tournament ()
  in
  check_bool "jobs=1 = jobs=4 with caches on" true
    (E.equal_stats sequential.A.engine_aggregate parallel.A.engine_aggregate)

(* --- closed loop (observe -> re-fit -> re-solve) ---------------------- *)

module Platform = Crowdmax_crowd.Platform
module Rwl = Crowdmax_crowd.Rwl
module Worker = Crowdmax_crowd.Worker

let simulated ?(scale = 1.0) () =
  let c = Platform.default_config in
  let config =
    {
      c with
      Platform.base_rate = c.Platform.base_rate *. scale;
      attract_per_question = c.Platform.attract_per_question *. scale;
    }
  in
  E.Simulated
    {
      platform = Platform.create ~config ();
      rwl = { Rwl.votes = 3; error = Worker.Uniform 0.15 };
    }

let test_refit_policy_validation () =
  let rng = Rng.create 31 in
  let problem = Problem.create ~elements:5 ~budget:20 ~latency:model in
  let truth = G.random (Rng.create 32) 5 in
  let run ?refit ?refit_window () =
    ignore (A.run ?refit ?refit_window rng ~problem ~selection:S.tournament truth)
  in
  Alcotest.check_raises "period < 1"
    (Invalid_argument "Adaptive.run: Every_k_rounds period < 1") (fun () ->
      run ~refit:(A.Every_k_rounds 0) ());
  Alcotest.check_raises "threshold 0"
    (Invalid_argument "Adaptive.run: On_drift threshold must be > 0") (fun () ->
      run ~refit:(A.On_drift 0.0) ());
  Alcotest.check_raises "threshold NaN"
    (Invalid_argument "Adaptive.run: On_drift threshold must be > 0") (fun () ->
      run ~refit:(A.On_drift Float.nan) ());
  Alcotest.check_raises "window < 2"
    (Invalid_argument "Adaptive.run: refit_window < 2") (fun () ->
      run ~refit:(A.Every_k_rounds 1) ~refit_window:1 ())

(* A periodic re-fit against the (unshifted) simulated platform installs
   a fitted model once the window spans two batch sizes; the planning
   model the loop ends with is the fit, not the problem's own. The
   second input (one noiseless vote, a Quantile 0.5 deadline, truth and
   run on one rng) once installed a fit with L(1) <= 0: the next
   quantile cutoff was then <= 0 and the platform raised. *)
let test_every_k_refits () =
  let check_refits ?deadline ~source ~elements ~budget rng truth =
    let problem = Problem.create ~elements ~budget ~latency:model in
    let r =
      A.run ~source ?deadline ~refit:(A.Every_k_rounds 1) rng ~problem
        ~selection:S.tournament truth
    in
    check_bool "re-fitted at least once" true (r.A.refits >= 1);
    check_bool "installed model differs from the problem's" true
      (not (Model.equal r.A.final_model model));
    check_int "drift counters untouched by Every_k" 0
      (r.A.drift_detected + r.A.replans_on_drift)
  in
  check_refits ~source:(simulated ()) ~elements:100 ~budget:150
    (Rng.create 41)
    (G.random (Rng.create 42) 100);
  let rng = Rng.create 12 in
  let truth = G.random rng 41 in
  check_refits ~deadline:(E.Quantile 0.5)
    ~source:
      (E.Simulated
         {
           platform = Platform.create ();
           rwl = { Rwl.votes = 1; error = Worker.Uniform 0.0 };
         })
    ~elements:41 ~budget:70 rng truth

(* The tentpole's end-to-end behavior: a mid-run supply drop makes the
   observed round seconds blow past the model, the detector fires, the
   re-fit installs a slower model, and the next solve re-plans against
   it. Off under the same shift never touches any counter. *)
let test_on_drift_detects_and_replans () =
  let problem = Problem.create ~elements:300 ~budget:800 ~latency:model in
  let shift = (1, simulated ~scale:0.08 ()) in
  let closed =
    A.replicate ~source:(simulated ()) ~refit:(A.On_drift 0.5)
      ~source_shift:shift ~runs:4 ~seed:47 ~problem ~selection:S.tournament ()
  in
  let stale =
    A.replicate ~source:(simulated ()) ~refit:A.Off ~source_shift:shift ~runs:4
      ~seed:47 ~problem ~selection:S.tournament ()
  in
  check_bool "drift detected" true (closed.A.total_drift_detected >= 1);
  check_bool "re-fitted" true (closed.A.total_refits >= 1);
  check_bool "re-planned on drift" true (closed.A.total_replans_on_drift >= 1);
  check_int "Off never re-fits" 0
    (stale.A.total_refits + stale.A.total_drift_detected
   + stale.A.total_replans_on_drift);
  check_bool "closed loop beats the stale plan" true
    (closed.A.engine_aggregate.E.mean_latency
    < stale.A.engine_aggregate.E.mean_latency)

(* The determinism contract holds for the full closed loop: re-fit
   arithmetic is per-run state, so chunked parallel replication with
   observation windows, drift counters and plan-cache invalidation is
   bit-identical to sequential. *)
let test_closed_loop_jobs_invariant () =
  let problem = Problem.create ~elements:120 ~budget:400 ~latency:model in
  let shift = (1, simulated ~scale:0.15 ()) in
  let agg jobs =
    A.replicate ~jobs ~source:(simulated ()) ~refit:(A.On_drift 0.5)
      ~source_shift:shift ~runs:9 ~seed:53 ~problem ~selection:S.tournament ()
  in
  let base = agg 1 in
  List.iter
    (fun jobs ->
      let p = agg jobs in
      check_bool
        (Printf.sprintf "jobs=%d engine stats match" jobs)
        true
        (E.equal_stats base.A.engine_aggregate p.A.engine_aggregate);
      check_int "refits" base.A.total_refits p.A.total_refits;
      check_int "drift" base.A.total_drift_detected p.A.total_drift_detected;
      check_int "replans" base.A.total_replans p.A.total_replans;
      check_int "replans on drift" base.A.total_replans_on_drift
        p.A.total_replans_on_drift)
    [ 2; 4 ]

(* The headline regression: a supply crash under a Fixed deadline.
   Every clipped round *charges* exactly the deadline, but the refit
   window must record the platform's last_completion — on a crashed
   market the last answer that made the cutoff lands far from the
   model's prediction, so the detector still fires. Feeding the
   clipped cost instead would read as a healthy round (the static
   guard below pins that) and silently blind the whole closed loop. *)
let test_deadline_clip_keeps_drift_visible () =
  let problem = Problem.create ~elements:300 ~budget:800 ~latency:model in
  let shift = (1, simulated ~scale:0.005 ()) in
  let d = 350.0 in
  let truth = G.random (Rng.create 67) 300 in
  let r =
    A.run ~source:(simulated ()) ~deadline:(E.Fixed d) ~refit:(A.On_drift 0.5)
      ~refit_window:3 ~source_shift:shift (Rng.create 61) ~problem
      ~selection:S.tournament truth
  in
  let trace = r.A.engine_result.E.trace in
  let obs = List.rev r.A.observations in
  check_int "one observation per executed round" (List.length trace)
    (List.length obs);
  let hits = List.filter (fun rr -> rr.E.deadline_hit) trace in
  check_bool "the crash actually clipped rounds" true (List.length hits >= 1);
  List.iter2
    (fun (o : Crowdmax_latency.Estimate.observation) rr ->
      check_int "observation keyed by distinct posted questions"
        rr.E.distinct_questions o.Crowdmax_latency.Estimate.batch_size;
      if rr.E.deadline_hit then begin
        (* the requester waited out the full deadline... *)
        check_bool "clipped round charges the deadline" true
          (Float.equal rr.E.round_latency d);
        (* ...but the estimator sees when the last answer landed *)
        check_bool "recorded seconds are last_completion, not the clip" true
          (o.Crowdmax_latency.Estimate.seconds < d);
        (* the poisoned value would have looked healthy: the model's
           prediction sits within the drift threshold of the clip *)
        check_bool "clipped cost is inside the drift threshold" true
          (Float.abs (d -. Model.eval model rr.E.distinct_questions) /. d
          < 0.5)
      end
      else
        check_bool "unclipped rounds observe the round cost" true
          (Float.equal o.Crowdmax_latency.Estimate.seconds rr.E.round_latency))
    obs trace;
  check_bool "drift detected despite the clipped window" true
    (r.A.drift_detected >= 1)

let suite =
  [
    ( "adaptive",
      [
        tc "finds max" `Quick test_finds_max;
        tc "never worse than static" `Quick test_never_worse_than_static;
        tc "budget respected" `Quick test_budget_respected;
        tc "single element" `Quick test_single_element;
        tc "truth size mismatch" `Quick test_truth_size_mismatch;
        tc "replicate" `Quick test_replicate;
        tc "replicate parallel deterministic" `Quick
          test_replicate_parallel_deterministic;
        tc "shared cache bit-identical" `Quick
          test_run_shared_cache_bit_identical;
        tc "replicate cached jobs invariant" `Quick
          test_replicate_cached_jobs_invariant;
        tc "refit policy validation" `Quick test_refit_policy_validation;
        tc "every-k re-fits" `Quick test_every_k_refits;
        tc "on-drift detects and replans" `Slow
          test_on_drift_detects_and_replans;
        tc "deadline clip keeps drift visible" `Quick
          test_deadline_clip_keeps_drift_visible;
        tc "closed loop jobs invariant" `Slow test_closed_loop_jobs_invariant;
      ] );
  ]
