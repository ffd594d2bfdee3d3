(* The Parallel pool and the determinism contract of Engine.replicate:
   aggregates must be bit-identical for every jobs count because the
   per-run RNGs are split from the master seed sequentially, before any
   fan-out. *)

open Crowdmax_util
module E = Crowdmax_runtime.Engine
module S = Crowdmax_selection.Selection
module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp

let tc = Alcotest.test_case
let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* --- the pool itself ---------------------------------------------------- *)

let test_map_matches_sequential () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun n ->
          let arr = Array.init n (fun i -> i) in
          let expect = Array.map (fun i -> (i * i) + 1) arr in
          let got = Parallel.map pool (fun i -> (i * i) + 1) arr in
          Alcotest.check
            Alcotest.(array int)
            (Printf.sprintf "map n=%d" n)
            expect got)
        [ 0; 1; 2; 3; 4; 5; 7; 8; 100; 1000 ])

let test_pool_reuse () =
  (* Many calls through one pool: the queue must drain cleanly each
     time, including calls smaller than the worker count. *)
  Parallel.with_pool ~jobs:4 (fun pool ->
      for round = 1 to 50 do
        let n = 1 + (round mod 7) in
        let got = Parallel.map pool (fun i -> i + round) (Array.init n Fun.id) in
        Alcotest.check
          Alcotest.(array int)
          "reuse round"
          (Array.init n (fun i -> i + round))
          got
      done)

let test_jobs_one_runs_inline () =
  let pool = Parallel.create ~jobs:1 in
  check_int "jobs clamped" 1 (Parallel.jobs pool);
  let got = Parallel.map pool (fun i -> i * 2) (Array.init 10 (fun i -> i)) in
  Alcotest.check Alcotest.(array int) "inline map"
    (Array.init 10 (fun i -> i * 2))
    got;
  Parallel.shutdown pool;
  (* shutdown is idempotent *)
  Parallel.shutdown pool

let test_jobs_clamped_to_one () =
  Parallel.with_pool ~jobs:0 (fun pool ->
      check_int "0 -> 1" 1 (Parallel.jobs pool));
  Parallel.with_pool ~jobs:(-3) (fun pool ->
      check_int "-3 -> 1" 1 (Parallel.jobs pool))

let test_absurd_jobs_rejected () =
  Alcotest.check_raises "guard"
    (Invalid_argument "Parallel.create: jobs = 1000 exceeds the cap of 128")
    (fun () -> ignore (Parallel.create ~jobs:1000))

exception Boom of int

let test_exception_propagates () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      (match
         Parallel.map pool
           (fun i -> if i = 57 then raise (Boom i) else i)
           (Array.init 100 Fun.id)
       with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Boom 57 -> ());
      (* the pool must still be usable after a failed call *)
      Alcotest.check
        Alcotest.(array int)
        "pool survives"
        (Array.init 8 (fun i -> i))
        (Parallel.map pool Fun.id (Array.init 8 Fun.id)))

let test_recommended_jobs_positive () =
  check_bool "positive" true (Parallel.recommended_jobs () >= 1)

(* --- determinism of the replicated engine ------------------------------- *)

let model = Model.paper_mturk

let replicate ~jobs ~runs ~seed ~elements ~budget ~selection =
  let sol =
    Tdp.solve (Problem.create ~elements ~budget ~latency:model)
  in
  let cfg =
    E.config ~allocation:sol.Tdp.allocation ~selection ~latency_model:model ()
  in
  E.replicate ~jobs ~runs ~seed cfg ~elements

let test_replicate_bit_identical () =
  (* The acceptance gate: jobs in {1, 2, 4} must agree bit-for-bit
     (timing aside) across several seeds, sizes, and selectors. *)
  List.iter
    (fun (seed, elements, budget, selection, runs) ->
      let base = replicate ~jobs:1 ~runs ~seed ~elements ~budget ~selection in
      List.iter
        (fun jobs ->
          let agg = replicate ~jobs ~runs ~seed ~elements ~budget ~selection in
          check_bool
            (Printf.sprintf "seed=%d c0=%d b=%d jobs=%d" seed elements budget
               jobs)
            true (E.equal_stats base agg);
          check_int "timing records the fan-out" jobs agg.E.timing.E.jobs)
        [ 2; 4 ])
    [
      (1, 40, 200, S.tournament, 16);
      (42, 25, 120, S.tournament, 10);
      (7, 30, 300, S.ct25, 12);
      (13, 50, 250, S.spread, 8);
      (99, 12, 60, S.greedy, 9);
    ]

let test_replicate_runs_not_multiple_of_jobs () =
  (* Chunking must not care whether runs divides evenly. *)
  List.iter
    (fun runs ->
      let base =
        replicate ~jobs:1 ~runs ~seed:5 ~elements:20 ~budget:100
          ~selection:S.tournament
      in
      List.iter
        (fun jobs ->
          let agg =
            replicate ~jobs ~runs ~seed:5 ~elements:20 ~budget:100
              ~selection:S.tournament
          in
          check_bool
            (Printf.sprintf "runs=%d jobs=%d" runs jobs)
            true (E.equal_stats base agg))
        [ 2; 3; 4; 5 ])
    [ 1; 2; 3; 5; 7 ]

let test_timing_populated () =
  let agg =
    replicate ~jobs:2 ~runs:6 ~seed:3 ~elements:15 ~budget:80
      ~selection:S.tournament
  in
  check_bool "wall clock non-negative" true (agg.E.timing.E.wall_seconds >= 0.0);
  check_bool "throughput positive" true (agg.E.timing.E.runs_per_sec > 0.0)

let suite =
  [
    ( "parallel",
      [
        tc "map matches sequential" `Quick test_map_matches_sequential;
        tc "pool reuse" `Quick test_pool_reuse;
        tc "jobs=1 runs inline" `Quick test_jobs_one_runs_inline;
        tc "jobs clamped to one" `Quick test_jobs_clamped_to_one;
        tc "absurd jobs rejected" `Quick test_absurd_jobs_rejected;
        tc "exception propagates" `Quick test_exception_propagates;
        tc "recommended jobs" `Quick test_recommended_jobs_positive;
        tc "replicate bit-identical across jobs" `Quick
          test_replicate_bit_identical;
        tc "replicate uneven chunks" `Quick
          test_replicate_runs_not_multiple_of_jobs;
        tc "timing populated" `Quick test_timing_populated;
      ] );
  ]
