(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 6) and runs bechamel micro-benchmarks over the
   computational kernels.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig13a       # one figure
     dune exec bench/main.exe -- micro        # only micro-benchmarks
     dune exec bench/main.exe -- figures      # only the paper figures
     CROWDMAX_BENCH_RUNS=100 dune exec bench/main.exe   # paper-scale runs *)

module X = Crowdmax_experiments
module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Heuristics = Crowdmax_core.Heuristics
module Selection = Crowdmax_selection.Selection
module Dag = Crowdmax_graph.Answer_dag
module Scoring = Crowdmax_graph.Scoring
module Engine = Crowdmax_runtime.Engine
module Adaptive = Crowdmax_runtime.Adaptive
module G = Crowdmax_crowd.Ground_truth
module Rwl = Crowdmax_crowd.Rwl
module W = Crowdmax_crowd.Worker
module Rng = Crowdmax_util.Rng
module Metrics = Crowdmax_obs.Metrics

(* A malformed CROWDMAX_BENCH_RUNS used to fall back to 30 silently,
   which made typos indistinguishable from the default. Fail loudly. *)
let runs =
  match Sys.getenv_opt "CROWDMAX_BENCH_RUNS" with
  | None -> 30
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some n ->
          Printf.eprintf
            "bench: CROWDMAX_BENCH_RUNS must be a positive integer, got %d\n" n;
          exit 2
      | None ->
          Printf.eprintf
            "bench: CROWDMAX_BENCH_RUNS must be a positive integer, got %S\n" s;
          exit 2)

(* Worker domains for replicated runs; 0 means "all cores". Settable via
   CROWDMAX_JOBS or --jobs/-j on the command line (argv wins). *)
let parse_jobs ~source s =
  match int_of_string_opt (String.trim s) with
  | Some 0 -> Crowdmax_util.Parallel.recommended_jobs ()
  | Some n when n > 128 ->
      Printf.eprintf "bench: %s capped at 128, got %d\n" source n;
      exit 2
  | Some n when n >= 1 -> n
  | Some n ->
      Printf.eprintf "bench: %s must be a non-negative integer, got %d\n" source
        n;
      exit 2
  | None ->
      Printf.eprintf "bench: %s must be a non-negative integer, got %S\n" source
        s;
      exit 2

let jobs =
  ref
    (match Sys.getenv_opt "CROWDMAX_JOBS" with
    | None -> 1
    | Some s -> parse_jobs ~source:"CROWDMAX_JOBS" s)

let section title =
  Printf.printf "\n================ %s ================\n%!" title

let model = Model.paper_mturk

(* An engine config running the tDP allocation of (c0, b) under
   [model], tournament selection unless told otherwise. *)
let tdp_config ?source ?deadline ?straggler ?(selection = Selection.tournament)
    c0 b =
  let sol = Tdp.solve (Problem.create ~elements:c0 ~budget:b ~latency:model) in
  Engine.config ?source ?deadline ?straggler ~allocation:sol.Tdp.allocation
    ~selection ~latency_model:model ()

(* --- paper figures ------------------------------------------------------ *)

let fig11a () =
  section "Fig 11(a) - L(q) estimation on the simulated platform";
  X.Fig11a.print (X.Fig11a.run ())

let fig11b () =
  section "Fig 11(b) - real-time runs (platform vs estimate), c0=500 b=4000";
  X.Fig11b.print (X.Fig11b.run ~jobs:!jobs ())

let fig12 () =
  section
    (Printf.sprintf "Fig 12(a,b) - question selection algorithms (%d runs)" runs);
  X.Fig12.print (X.Fig12.run ~jobs:!jobs ~runs ())

let fig13a () =
  section
    (Printf.sprintf "Fig 13(a) - latency vs collection size (%d runs)" runs);
  let f = X.Fig13.run_a ~jobs:!jobs ~runs () in
  X.Fig13.print f;
  (* Sec. 6.4 also quotes the allocations behind the coincidences *)
  print_newline ();
  List.iter
    (fun (label, note) ->
      if String.equal label "tDP+Tournament" || String.equal label "uHF+CT25" then
        Printf.printf "  %s\n" note)
    f.X.Fig13.example_allocations

let fig13b () =
  section (Printf.sprintf "Fig 13(b) - latency vs budget (%d runs)" runs);
  X.Fig13.print (X.Fig13.run_b ~jobs:!jobs ~runs ())

let fig14a () =
  section
    (Printf.sprintf "Fig 14(a) - non-linear latency functions (%d runs)" runs);
  X.Fig14.print_a (X.Fig14.run_a ~jobs:!jobs ~runs ())

let fig14b () =
  section "Fig 14(b) - questions used by tDP vs available budget";
  X.Fig14.print_b (X.Fig14.run_b ())

let fig15 () =
  section "Fig 15 - tDP running time";
  X.Fig15.print (X.Fig15.run ())

(* Beyond the paper: per-round re-planning vs the static tDP schedule.
   With pure tournament rounds the two coincide (DP suffix optimality);
   the gain appears when cross-tournament extras over-eliminate. *)
let ablation_adaptive () =
  section "Ablation - adaptive re-planning tDP vs static tDP";
  let table =
    Crowdmax_util.Table.create
      [ ("c0", Crowdmax_util.Table.Right); ("b", Crowdmax_util.Table.Right);
        ("static (s)", Crowdmax_util.Table.Right);
        ("adaptive (s)", Crowdmax_util.Table.Right);
        ("gain", Crowdmax_util.Table.Right) ]
  in
  List.iter
    (fun (c0, b) ->
      let problem = Problem.create ~elements:c0 ~budget:b ~latency:model in
      let st =
        Engine.replicate ~jobs:!jobs ~runs ~seed:3 (tdp_config c0 b)
          ~elements:c0
      in
      let ad =
        Crowdmax_runtime.Adaptive.replicate ~jobs:!jobs ~runs ~seed:3 ~problem
          ~selection:Selection.tournament ()
      in
      Crowdmax_util.Table.add_row table
        [
          string_of_int c0; string_of_int b;
          Printf.sprintf "%.1f" st.Engine.mean_latency;
          Printf.sprintf "%.1f" ad.Crowdmax_runtime.Adaptive.engine_aggregate.Engine.mean_latency;
          Printf.sprintf "%.1f%%"
            (100.0
            *. (st.Engine.mean_latency
               -. ad.Crowdmax_runtime.Adaptive.engine_aggregate
                    .Engine.mean_latency)
            /. st.Engine.mean_latency);
        ])
    [ (125, 1000); (250, 2000); (500, 4000); (500, 999) ];
  Crowdmax_util.Table.print table

(* Ablation - CT split point sensitivity (Sec. 5.2 / 6.8): latency and
   singleton rate of CT25 / CT50 / CT75 and SPREAD+GREEDY under the tDP
   allocation. *)
let ablation_ct_split () =
  section "Ablation - CT split point (CT25/CT50/CT75, SG25) under tDP";
  let c0 = 500 and b = 4000 in
  let table =
    Crowdmax_util.Table.create
      [ ("selector", Crowdmax_util.Table.Left);
        ("latency (s)", Crowdmax_util.Table.Right);
        ("singleton", Crowdmax_util.Table.Right);
        ("correct", Crowdmax_util.Table.Right) ]
  in
  List.iter
    (fun sel ->
      let agg =
        Engine.replicate ~jobs:!jobs ~runs ~seed:7
          (tdp_config ~selection:sel c0 b)
          ~elements:c0
      in
      Crowdmax_util.Table.add_row table
        [
          sel.Selection.name;
          Printf.sprintf "%.1f" agg.Engine.mean_latency;
          Printf.sprintf "%.0f%%" (100.0 *. agg.Engine.singleton_rate);
          Printf.sprintf "%.0f%%" (100.0 *. agg.Engine.correct_rate);
        ])
    [
      Selection.tournament; Selection.ct25; Selection.ct50; Selection.ct75;
      Selection.sg 0.25; Selection.spread; Selection.complete; Selection.greedy;
    ];
  Crowdmax_util.Table.print table

(* Ablation - RWL repetition factor: answer accuracy and correct-MAX
   rate as votes grow, at fixed worker error. *)
let ablation_rwl () =
  section "Ablation - RWL repetition factor (15% worker error, c0=100)";
  let c0 = 100 and b = 800 in
  let platform = Crowdmax_crowd.Platform.create () in
  let table =
    Crowdmax_util.Table.create
      [ ("votes", Crowdmax_util.Table.Right);
        ("correct MAX", Crowdmax_util.Table.Right);
        ("mean latency (s)", Crowdmax_util.Table.Right) ]
  in
  List.iter
    (fun votes ->
      let cfg =
        tdp_config c0 b
          ~source:
            (Engine.Simulated
               { platform; rwl = { Rwl.votes; error = W.Uniform 0.15 } })
      in
      let agg = Engine.replicate ~jobs:!jobs ~runs ~seed:11 cfg ~elements:c0 in
      Crowdmax_util.Table.add_row table
        [
          string_of_int votes;
          Printf.sprintf "%.0f%%" (100.0 *. agg.Engine.correct_rate);
          Printf.sprintf "%.0f" agg.Engine.mean_latency;
        ])
    [ 1; 3; 5; 7 ];
  Crowdmax_util.Table.print table

(* Extension - top-k via successive MAX with answer reuse, vs k naive
   independent MAX runs. *)
let extension_topk () =
  section "Extension - top-k with answer reuse vs naive repetition";
  let table =
    Crowdmax_util.Table.create
      [ ("c0", Crowdmax_util.Table.Right); ("k", Crowdmax_util.Table.Right);
        ("reuse (s)", Crowdmax_util.Table.Right);
        ("naive (s)", Crowdmax_util.Table.Right);
        ("reuse questions", Crowdmax_util.Table.Right);
        ("exact", Crowdmax_util.Table.Right) ]
  in
  List.iter
    (fun (c0, k, b) ->
      let master = Crowdmax_util.Rng.create 5 in
      let reuse_lat = ref 0.0 and naive_lat = ref 0.0 in
      let reuse_q = ref 0 and exact = ref 0 in
      let trials = max 3 (runs / 5) in
      for _ = 1 to trials do
        let rng = Crowdmax_util.Rng.split master in
        let truth = G.random rng c0 in
        let problem = Problem.create ~elements:c0 ~budget:b ~latency:model in
        let r =
          Crowdmax_topk.Topk.run rng ~k ~problem
            ~selection:Selection.tournament truth
        in
        reuse_lat := !reuse_lat +. r.Crowdmax_topk.Topk.total_latency;
        reuse_q := !reuse_q + r.Crowdmax_topk.Topk.questions_posted;
        if r.Crowdmax_topk.Topk.exact then incr exact;
        (* naive: k independent MAX runs over shrinking budgets *)
        for pass = 0 to k - 1 do
          let cfg = tdp_config (c0 - pass) (b / k) in
          let t = G.random rng (c0 - pass) in
          let res = Engine.run rng cfg t in
          naive_lat := !naive_lat +. res.Engine.total_latency
        done
      done;
      let f = float_of_int trials in
      Crowdmax_util.Table.add_row table
        [
          string_of_int c0; string_of_int k;
          Printf.sprintf "%.0f" (!reuse_lat /. f);
          Printf.sprintf "%.0f" (!naive_lat /. f);
          Printf.sprintf "%.0f" (float_of_int !reuse_q /. f);
          Printf.sprintf "%d/%d" !exact trials;
        ])
    [ (100, 3, 1200); (300, 3, 3000); (300, 5, 5000) ];
  Crowdmax_util.Table.print table

(* Extension - SORT in rounds: the same cost-latency tradeoff on the
   sibling operator, under overhead-heavy and question-heavy L. *)
let extension_sort () =
  section "Extension - SORT strategies (n = 40)";
  let n = 40 in
  let strategies =
    [ Crowdmax_sort.Sort.All_pairs; Crowdmax_sort.Sort.Odd_even;
      Crowdmax_sort.Sort.Odd_even_skip ]
  in
  let models =
    [ ("L=239+0.06q (MTurk)", model);
      ("L=10+2q (question-heavy)", Model.linear ~delta:10.0 ~alpha:2.0) ]
  in
  let table =
    Crowdmax_util.Table.create
      (("strategy", Crowdmax_util.Table.Left)
      :: ("questions", Crowdmax_util.Table.Right)
      :: ("rounds", Crowdmax_util.Table.Right)
      :: List.map (fun (l, _) -> (l, Crowdmax_util.Table.Right)) models)
  in
  List.iter
    (fun strategy ->
      let rng = Crowdmax_util.Rng.create 11 in
      let truth = G.random rng n in
      let runs_for m =
        (Crowdmax_sort.Sort.run rng ~strategy ~latency:m truth, ())
      in
      let base, () = runs_for model in
      Crowdmax_util.Table.add_row table
        (Crowdmax_sort.Sort.strategy_name strategy
        :: string_of_int base.Crowdmax_sort.Sort.questions_posted
        :: string_of_int base.Crowdmax_sort.Sort.rounds_run
        :: List.map
             (fun (_, m) ->
               let r, () = runs_for m in
               Printf.sprintf "%.0f s" r.Crowdmax_sort.Sort.total_latency)
             models))
    strategies;
  Crowdmax_util.Table.print table

(* Extension - posting time on a diurnal platform: the same batch is
   slower when posted at the availability trough. *)
let extension_diurnal () =
  section "Extension - diurnal worker availability (batch of 80)";
  let cfg phase =
    {
      Crowdmax_crowd.Platform.default_config with
      Crowdmax_crowd.Platform.diurnal_amplitude = 0.9;
      diurnal_period = 4000.0;
      diurnal_phase = phase;
      base_rate = 0.01;
      attract_per_question = 0.0001;
    }
  in
  let table =
    Crowdmax_util.Table.create
      [ ("posting time", Crowdmax_util.Table.Left);
        ("mean latency (s)", Crowdmax_util.Table.Right) ]
  in
  List.iter
    (fun (label, phase) ->
      let p = Crowdmax_crowd.Platform.create ~config:(cfg phase) () in
      let rng = Crowdmax_util.Rng.create 13 in
      let xs =
        Array.init (max 10 runs) (fun _ ->
            Crowdmax_crowd.Platform.batch_latency p rng 80)
      in
      Crowdmax_util.Table.add_row table
        [ label; Printf.sprintf "%.0f" (Crowdmax_util.Stats.mean xs) ])
    [ ("peak availability", 1000.0); ("mid", 0.0); ("trough", 3000.0) ];
  Crowdmax_util.Table.print table

(* Extension - the cost-latency skyline: dollars (at the paper's $0.01 a
   question) against the optimal latency each budget buys. *)
let extension_frontier () =
  section "Extension - cost-latency Pareto frontier (c0 = 500, $0.01/question)";
  let budgets = [ 499; 750; 1000; 1500; 2000; 3000; 4000; 8000 ] in
  let pts =
    Crowdmax_core.Cost.frontier ~latency:model ~elements:500 ~budgets ()
  in
  let table =
    Crowdmax_util.Table.create
      [ ("budget (questions)", Crowdmax_util.Table.Right);
        ("spend ($)", Crowdmax_util.Table.Right);
        ("optimal latency (s)", Crowdmax_util.Table.Right) ]
  in
  List.iter
    (fun pt ->
      Crowdmax_util.Table.add_row table
        [
          string_of_int pt.Crowdmax_core.Cost.budget;
          Printf.sprintf "%.2f" pt.Crowdmax_core.Cost.dollars;
          Printf.sprintf "%.1f" pt.Crowdmax_core.Cost.latency;
        ])
    pts;
  Crowdmax_util.Table.print table

let extension_robustness () =
  section "Extension - error robustness sweep";
  X.Robustness.print (X.Robustness.run ~jobs:!jobs ~runs:(max 10 (runs / 2)) ())

let ablations () =
  ablation_adaptive ();
  ablation_ct_split ();
  ablation_rwl ();
  extension_topk ();
  extension_sort ();
  extension_diurnal ();
  extension_frontier ();
  extension_robustness ()

let findings () =
  section "Sec. 6.8 - the paper's summary findings, re-derived";
  X.Findings.print (X.Findings.run ~jobs:!jobs ~runs ())

let figures () =
  fig11a ();
  fig11b ();
  fig12 ();
  fig13a ();
  fig13b ();
  fig14a ();
  fig14b ();
  fig15 ();
  findings ()

(* --- engine throughput bench -------------------------------------------- *)

(* Times full [Engine.run] calls (runs/sec) on the hot path the sweeps
   are gated on, and records the result in BENCH_engine.json so the perf
   trajectory of the engine is tracked across PRs. Smoke-scale in CI via
   CROWDMAX_ENGINE_BENCH_SECS; CROWDMAX_ENGINE_BENCH_WRITE=0 keeps CI
   from overwriting the committed baseline. *)

let engine_bench_file = "BENCH_engine.json"

let engine_bench_secs =
  match Sys.getenv_opt "CROWDMAX_ENGINE_BENCH_SECS" with
  | None -> 1.0
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some f when f > 0.0 -> f
      | _ ->
          Printf.eprintf
            "bench: CROWDMAX_ENGINE_BENCH_SECS must be a positive number, got %S\n"
            s;
          exit 2)

let engine_bench_write =
  match Sys.getenv_opt "CROWDMAX_ENGINE_BENCH_WRITE" with
  | Some ("0" | "false" | "no") -> false
  | _ -> true

type engine_bench_row = {
  eb_n : int;
  eb_source : string;
  eb_selector : string;
  eb_runs : int;
  eb_wall : float;
  eb_rps : float;
}

(* The canonical simulated bench config for [n] elements: budget 8n,
   3-vote RWL at 15% worker error. Shared between the throughput rows
   and the operation-count gate below, so the gate pins exactly the work
   the bench times. *)
let engine_sim_config ?deadline ?straggler n =
  tdp_config ?deadline ?straggler n (8 * n)
    ~source:
      (Engine.Simulated
         {
           platform = Crowdmax_crowd.Platform.create ();
           rwl = { Rwl.votes = 3; error = W.Uniform 0.15 };
         })

let engine_bench_cases () =
  List.concat_map
    (fun n ->
      [
        (n, "oracle", tdp_config n (8 * n));
        (n, "simulated", engine_sim_config n);
        (* the finite-deadline path adds per-round bookkeeping (pending
           queue, partial consensus); a cut-off Fixed deadline with
           carry-forward exercises all of it, and doubles as the CI smoke
           for deadline-bounded rounds *)
        ( n,
          "simulated+deadline",
          engine_sim_config n ~deadline:(Engine.Fixed 200.0)
            ~straggler:Engine.Carry_forward );
      ])
    [ 50; 100; 500 ]

(* Three equal measurement windows per case; the reported runs/sec is the
   best window. CPU frequency on shared boxes wanders by double-digit
   percentages between seconds, so a single window measures the box's
   mood as much as the code; the best window is the stablest estimate of
   what the code can do. [eb_runs] / [eb_wall] stay totals over all
   windows. *)
let engine_bench_windows = 3

(* Best-of-windows calls/sec of [f], each window at least [min_calls]
   calls long, and the total calls over all windows. *)
let best_rate ?(min_calls = 1) f =
  let window_secs = engine_bench_secs /. float_of_int engine_bench_windows in
  let best = ref 0.0 in
  let total = ref 0 in
  for _ = 1 to engine_bench_windows do
    let w0 = Unix.gettimeofday () in
    let deadline = w0 +. window_secs in
    let count = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      f ();
      incr count;
      if !count >= min_calls && Unix.gettimeofday () >= deadline then
        continue_ := false
    done;
    let rate =
      float_of_int !count /. Float.max (Unix.gettimeofday () -. w0) 1e-9
    in
    total := !total + !count;
    if rate > !best then best := rate
  done;
  (!best, !total)

let engine_bench_measure (n, source, cfg) =
  let master = Rng.create 99 in
  let t0 = Unix.gettimeofday () in
  (* [Engine.runner] is the replication-loop entry point: identical
     draws and results to [Engine.run], with policy validation,
     instrument registration and simulation scratch hoisted out of the
     measured loop — the same shape [Engine.replicate] runs per worker. *)
  let run = Engine.runner cfg in
  let rps, runs =
    best_rate ~min_calls:3 (fun () ->
        let rng = Rng.split master in
        let truth = G.random rng n in
        ignore (run rng truth))
  in
  {
    eb_n = n;
    eb_source = source;
    eb_selector = "Tournament";
    eb_runs = runs;
    eb_wall = Unix.gettimeofday () -. t0;
    eb_rps = rps;
  }

(* Observability-layer overhead on the hot path: [Engine.replicate]
   vs [Engine.replicate_with_metrics] at n=100 Oracle/Tournament — the
   cheapest per-run config and therefore the worst case for fixed
   per-run instrumentation cost, measured through the replication API
   that real callers (the CLI's --metrics path) actually use.

   The estimator is deliberately paranoid about the box. CPU frequency
   on shared machines drifts by double-digit percentages over the
   seconds separating two bench cases, so comparing two sequential
   table rows measures the drift, not the code. Instead the two sides
   alternate in small blocks (a couple of hundred runs, a few
   milliseconds each) over the whole measurement budget, with the
   within-pair order itself alternating so monotone drift biases
   even and odd pairs in opposite directions; the accumulated per-side
   totals then give one stable ratio instead of a noisy per-window
   comparison. *)
type metrics_overhead = {
  mo_off_rps : float; (* metrics disabled, runs over accumulated time *)
  mo_on_rps : float; (* metrics enabled, runs over accumulated time *)
  mo_overhead_pct : float; (* time-on / time-off - 1, as % *)
}

let engine_metrics_overhead () =
  let n = 100 in
  let cfg = tdp_config n (8 * n) in
  let block = 200 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let off seed () = Engine.replicate ~runs:block ~seed cfg ~elements:n in
  let on seed () =
    Engine.replicate_with_metrics ~runs:block ~seed cfg ~elements:n
  in
  (* warm both paths *)
  ignore (off 1 ());
  ignore (on 1 ());
  let t_off = ref 0.0 in
  let t_on = ref 0.0 in
  let blocks = ref 0 in
  let deadline = Unix.gettimeofday () +. (2.0 *. engine_bench_secs) in
  let continue_ = ref true in
  while !continue_ do
    let seed = 100 + !blocks in
    if !blocks mod 2 = 0 then begin
      t_off := !t_off +. timed (off seed);
      t_on := !t_on +. timed (on seed)
    end
    else begin
      t_on := !t_on +. timed (on seed);
      t_off := !t_off +. timed (off seed)
    end;
    incr blocks;
    if Unix.gettimeofday () >= deadline then continue_ := false
  done;
  let total_runs = float_of_int (block * !blocks) in
  {
    mo_off_rps = total_runs /. Float.max !t_off 1e-9;
    mo_on_rps = total_runs /. Float.max !t_on 1e-9;
    mo_overhead_pct = ((!t_on /. Float.max !t_off 1e-9) -. 1.0) *. 100.0;
  }

(* --- planner throughput bench ------------------------------------------- *)

(* Times [Tdp.solve] itself: cold solves (fresh plan cache every call,
   tables and arena rebuilt from scratch) against the boxed
   [Tdp.solve_hashtbl] reference solver, and warm incremental budget
   sweeps (one shared cache per sweep — the Fig 13(b)/14(b) access
   pattern) against the same sweep done with independent hashtbl
   solves. Both solvers compute bit-identical solutions, so the ratio
   is pure representation: flat arena + packed keys vs hashtbl over
   boxed (int * int) keys. *)
type planner_bench = {
  pl_c0 : int;
  pl_budget : int;
  pl_flat_rps : float; (* cold flat-arena solves/sec *)
  pl_hashtbl_rps : float; (* reference hashtbl solves/sec *)
  pl_states : int; (* DP states settled by one cold solve *)
  pl_sweep_points : int;
  pl_sweep_lo : int; (* smallest budget in the sweep grid *)
  pl_sweep_hi : int; (* largest budget in the sweep grid *)
  pl_prime_secs : float; (* one incremental fresh-cache pass over the grid *)
  pl_prime_states : int; (* DP states that pass settles *)
  pl_sweep_rps : float; (* warm (primed-cache) sweeps/sec *)
  pl_sweep_hashtbl_rps : float; (* independent hashtbl sweeps/sec *)
}

let planner_bench () =
  let c0 = 1000 and budget = 8000 in
  let problem = Problem.create ~elements:c0 ~budget ~latency:model in
  let states = (Tdp.solve problem).Tdp.states_visited in
  let flat_rps = fst (best_rate (fun () -> ignore (Tdp.solve problem))) in
  let hashtbl_rps =
    fst (best_rate (fun () -> ignore (Tdp.solve_hashtbl problem)))
  in
  (* The Fig. 15 workload: a 20-point budget grid spanning multiples
     2x..16x of the collection size. One incremental pass over the grid
     with a fresh cache primes it (timed and reported — that is what a
     first sweep costs); the warm sweep then re-solves all 20 points on
     the primed cache, which is fig15's warm grid and the Adaptive
     replan pattern: every state is settled, each solve is a root
     lookup plus sequence reconstruction. The baseline pays the full
     seed solver 20 times, as every sweep did before the cache. *)
  let sweep_points = 20 in
  let sweep_lo = 2 * c0 and sweep_hi = 16 * c0 in
  let sweep_problems =
    List.init sweep_points (fun i ->
        Problem.create ~elements:c0
          ~budget:(sweep_lo + (i * (sweep_hi - sweep_lo) / (sweep_points - 1)))
          ~latency:model)
  in
  let cache = Tdp.Cache.create () in
  let t0 = Unix.gettimeofday () in
  List.iter (fun p -> ignore (Tdp.solve ~cache p)) sweep_problems;
  let prime_secs = Unix.gettimeofday () -. t0 in
  let prime_states = Tdp.Cache.states_settled cache in
  let sweep_rps =
    fst (best_rate (fun () ->
        List.iter (fun p -> ignore (Tdp.solve ~cache p)) sweep_problems))
  in
  let sweep_hashtbl_rps =
    fst (best_rate (fun () ->
        List.iter (fun p -> ignore (Tdp.solve_hashtbl p)) sweep_problems))
  in
  {
    pl_c0 = c0;
    pl_budget = budget;
    pl_flat_rps = flat_rps;
    pl_hashtbl_rps = hashtbl_rps;
    pl_states = states;
    pl_sweep_points = sweep_points;
    pl_sweep_lo = sweep_lo;
    pl_sweep_hi = sweep_hi;
    pl_prime_secs = prime_secs;
    pl_prime_states = prime_states;
    pl_sweep_rps = sweep_rps;
    pl_sweep_hashtbl_rps = sweep_hashtbl_rps;
  }

module J = Crowdmax_util.Json

let planner_json p =
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  J.Obj
    [
      ("c0", J.int p.pl_c0);
      ("budget", J.int p.pl_budget);
      ("cold_solves_per_sec", J.Float p.pl_flat_rps);
      ("hashtbl_solves_per_sec", J.Float p.pl_hashtbl_rps);
      ("cold_speedup_vs_hashtbl", J.Float (ratio p.pl_flat_rps p.pl_hashtbl_rps));
      ("states_per_solve", J.int p.pl_states);
      ("states_per_sec", J.Float (float_of_int p.pl_states *. p.pl_flat_rps));
      ("sweep_points", J.int p.pl_sweep_points);
      ("sweep_budget_lo", J.int p.pl_sweep_lo);
      ("sweep_budget_hi", J.int p.pl_sweep_hi);
      ("sweep_prime_seconds", J.Float p.pl_prime_secs);
      ("sweep_prime_states", J.int p.pl_prime_states);
      ("warm_sweeps_per_sec", J.Float p.pl_sweep_rps);
      ("hashtbl_sweeps_per_sec", J.Float p.pl_sweep_hashtbl_rps);
      ( "warm_sweep_speedup",
        J.Float (ratio p.pl_sweep_rps p.pl_sweep_hashtbl_rps) );
    ]

let engine_row_json r =
  J.Obj
    [
      ("n", J.int r.eb_n);
      ("source", J.String r.eb_source);
      ("selector", J.String r.eb_selector);
      ("runs", J.int r.eb_runs);
      ("wall_seconds", J.Float r.eb_wall);
      ("runs_per_sec", J.Float r.eb_rps);
    ]

let engine_bench_json rows overhead planner =
  J.Obj
    [
      ("schema", J.String "crowdmax-bench-engine/v1");
      ("windows_per_case", J.int engine_bench_windows);
      (* Which dune profile produced the numbers: the dev profile
         compiles with -opaque, which blocks the cross-module [@inline]
         the simulator hot path depends on, so dev and release numbers
         are not comparable. [make bench] builds release. *)
      ("build_profile", J.String Build_profile.value);
      ( "metrics_overhead",
        J.Obj
          [
            ("n", J.int 100);
            ("source", J.String "oracle");
            ("off_runs_per_sec", J.Float overhead.mo_off_rps);
            ("on_runs_per_sec", J.Float overhead.mo_on_rps);
            ("overhead_pct", J.Float overhead.mo_overhead_pct);
          ] );
      ("planner", planner_json planner);
      ("results", J.List (List.map engine_row_json rows));
    ]

(* --- commit-keyed history ------------------------------------------------ *)

(* One compact JSONL row per [make bench] run, appended (never
   rewritten), so the perf trajectory survives the snapshot file being
   overwritten each run. Keyed by commit so rows can be joined back to
   the code that produced them. *)
let bench_history_file = "BENCH_history.jsonl"

(* Standard output of [git args], or [None] when git fails (no git, or
   not a work tree). *)
let git args =
  try
    let ic = Unix.open_process_in ("git " ^ args ^ " 2>/dev/null") in
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Some out
    | _ -> None
  with _ -> None

let git_commit () =
  match Option.map String.trim (git "rev-parse --short=12 HEAD") with
  | Some commit when not (String.equal commit "") -> commit
  | _ -> "unknown"

(* A row is keyed to HEAD, so it may only measure HEAD: refuse to
   append while the work tree differs from HEAD in anything but the two
   bench output files. *)
let require_clean_tree () =
  match
    git
      (Printf.sprintf "status --porcelain -- . ':!%s' ':!%s'"
         bench_history_file engine_bench_file)
  with
  | Some dirty when not (String.equal dirty "") ->
      Printf.eprintf
        "bench: refusing to append to %s; commit first, so the row names \
         the tree it measured. The work tree differs from HEAD in:\n%s"
        bench_history_file dirty;
      exit 2
  | _ -> ()

(* Append one row keyed to HEAD: the [schema], commit, time and build
   profile, then [fields]. *)
let append_bench_history ~schema fields =
  let commit = git_commit () in
  let row =
    J.Obj
      (("schema", J.String schema)
      :: ("commit", J.String commit)
      :: ("unix_time", J.Float (Unix.time ()))
      :: ("build_profile", J.String Build_profile.value)
      :: fields)
  in
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 bench_history_file
  in
  output_string oc (J.to_string row);
  output_char oc '\n';
  close_out oc;
  Printf.printf "appended a %s row for commit %s to %s\n%!" schema commit
    bench_history_file

(* The committed baseline, as (n, source, selector) -> runs/sec. *)
let engine_bench_baseline () =
  if not (Sys.file_exists engine_bench_file) then []
  else
    let s = In_channel.with_open_text engine_bench_file In_channel.input_all in
    match J.member "results" (J.of_string s) with
    | Some (J.List rows) ->
        List.filter_map
          (fun row ->
            match
              ( Option.bind (J.member "n" row) J.to_int,
                Option.bind (J.member "source" row) J.to_str,
                Option.bind (J.member "selector" row) J.to_str,
                Option.bind (J.member "runs_per_sec" row) J.to_float )
            with
            | Some n, Some src, Some sel, Some rps -> Some ((n, src, sel), rps)
            | _ -> None)
          rows
    | _ -> []

let engine_bench () =
  (* A run allocates tens of KB (truth, DAG, question list); with the
     default 2 MB minor heap the GC cadence becomes part of the
     measurement. A larger minor heap makes the numbers about the engine,
     not the collector's default tuning. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  if engine_bench_write then require_clean_tree ();
  section
    (Printf.sprintf
       "engine throughput (runs/sec, best of %d windows, >= %.2f s per case, \
        %s build)"
       engine_bench_windows engine_bench_secs Build_profile.value);
  let baseline =
    try engine_bench_baseline ()
    with _ ->
      Printf.eprintf "bench: could not parse %s; ignoring baseline\n"
        engine_bench_file;
      []
  in
  let rows = List.map engine_bench_measure (engine_bench_cases ()) in
  let table =
    Crowdmax_util.Table.create
      [ ("n", Crowdmax_util.Table.Right);
        ("source", Crowdmax_util.Table.Left);
        ("selector", Crowdmax_util.Table.Left);
        ("runs", Crowdmax_util.Table.Right);
        ("runs/sec", Crowdmax_util.Table.Right);
        ("committed", Crowdmax_util.Table.Right);
        ("speedup", Crowdmax_util.Table.Right) ]
  in
  List.iter
    (fun r ->
      let old =
        Option.map snd
          (List.find_opt
             (fun ((n, src, sel), _) ->
               n = r.eb_n
               && String.equal src r.eb_source
               && String.equal sel r.eb_selector)
             baseline)
      in
      Crowdmax_util.Table.add_row table
        [
          string_of_int r.eb_n; r.eb_source; r.eb_selector;
          string_of_int r.eb_runs;
          Printf.sprintf "%.1f" r.eb_rps;
          (match old with Some o -> Printf.sprintf "%.1f" o | None -> "-");
          (match old with
          | Some o when o > 0.0 -> Printf.sprintf "%.2fx" (r.eb_rps /. o)
          | _ -> "-");
        ])
    rows;
  Crowdmax_util.Table.print table;
  let overhead = engine_metrics_overhead () in
  Printf.printf
    "metrics overhead (replicate, oracle, n=100, interleaved blocks): %+.2f%% (%.1f off vs %.1f on runs/sec)\n"
    overhead.mo_overhead_pct overhead.mo_off_rps overhead.mo_on_rps;
  let planner = planner_bench () in
  let ptable =
    Crowdmax_util.Table.create
      ~title:
        (Printf.sprintf "planner throughput (c0=%d, best of %d windows)"
           planner.pl_c0 engine_bench_windows)
      [ ("case", Crowdmax_util.Table.Left);
        ("flat/sec", Crowdmax_util.Table.Right);
        ("hashtbl/sec", Crowdmax_util.Table.Right);
        ("speedup", Crowdmax_util.Table.Right) ]
  in
  let pr_row label a b =
    Crowdmax_util.Table.add_row ptable
      [
        label;
        Printf.sprintf "%.1f" a;
        Printf.sprintf "%.1f" b;
        (if b > 0.0 then Printf.sprintf "%.2fx" (a /. b) else "-");
      ]
  in
  pr_row
    (Printf.sprintf "cold solve b=%d" planner.pl_budget)
    planner.pl_flat_rps planner.pl_hashtbl_rps;
  pr_row
    (Printf.sprintf "warm %d-pt sweep b=%d..%d" planner.pl_sweep_points
       planner.pl_sweep_lo planner.pl_sweep_hi)
    planner.pl_sweep_rps planner.pl_sweep_hashtbl_rps;
  Crowdmax_util.Table.print ptable;
  Printf.printf "planner: %d DP states/cold solve, %.2fM states/sec\n"
    planner.pl_states
    (float_of_int planner.pl_states *. planner.pl_flat_rps /. 1e6);
  Printf.printf
    "planner: priming the sweep cache took %.3fs (%d states, paid once)\n"
    planner.pl_prime_secs planner.pl_prime_states;
  if engine_bench_write then begin
    let oc = open_out engine_bench_file in
    output_string oc
      (J.to_string ~pretty:true
         (engine_bench_json rows overhead planner));
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n%!" engine_bench_file;
    append_bench_history ~schema:"crowdmax-bench-history/v1"
      [
        ("engine", J.List (List.map engine_row_json rows));
        ("planner", planner_json planner);
        ("metrics_overhead_pct", J.Float overhead.mo_overhead_pct);
      ]
  end
  else
    Printf.printf "(CROWDMAX_ENGINE_BENCH_WRITE=0: %s and %s left untouched)\n%!"
      engine_bench_file bench_history_file

(* --- deterministic operation-count gate ---------------------------------- *)

(* The simulated platform, the tDP planner, the adaptive loop and the
   query server count their work in simulated quantities only, so for a
   fixed scenario their counters are bit-deterministic: the same totals
   on any machine, at any [jobs], with metrics on or off. [opcheck] runs
   each scenario of [opcheck_scenarios] once and fails, naming the
   counter or check, when

   - a counter differs from its pin in [opcheck_pins], a pinned counter
     is missing from its scenario's run, or a counted one is not pinned;
   - one of a scenario's structural checks does not hold;
   - a counter drifts by more than [history_drift_pct] from the newest
     counters-bearing row of BENCH_history.jsonl. Because the counters
     are deterministic, any drift is a real behavior change; this
     comparison catches a work-profile change across commits even when
     the pins were regenerated with it, and the 2% headroom only
     tolerates deliberate, reviewed bookkeeping tweaks.

   [history-append] appends the same counters as a new history row.
   After an intentional change, CROWDMAX_OPCHECK_PRINT=1 prints the
   measured counters as [opcheck_pins] source instead of checking.

   CROWDMAX_BENCH_BASELINE overrides the history baseline:
     CROWDMAX_BENCH_BASELINE=skip          skip the comparison (prints a note)
     CROWDMAX_BENCH_BASELINE=<commit-pfx>  compare against the newest
                                           counters row whose commit
                                           starts with that prefix *)

(* What one scenario run measured: its counters, keyed as in
   BENCH_history.jsonl, and its structural checks, each named with
   whether it held. A counter the run's snapshot lacks is absent. *)
type measured = {
  counters : (string * int) list;
  checks : (string * bool) list;
}

(* The [names] counters of [section] that [snap] holds, keyed [key name]. *)
let snapshot_counters snap ~section ~key names =
  List.filter_map
    (fun name ->
      match Metrics.find snap ~section name with
      | Some (Metrics.Count c) -> Some (key name, c)
      | _ -> None)
    names

(* [key]'s value in [counters], if the run counted it. *)
let find_counter counters key =
  Option.map snd (List.find_opt (fun (k, _) -> String.equal k key) counters)

(* The simulated event loop: 5 runs of the canonical bench config at
   seed 99. Every event drained is an arrival or a completion (the
   Platform.simulate contract). *)
let opcheck_engine n =
  let _agg, snap =
    Engine.replicate_with_metrics ~runs:5 ~seed:99 (engine_sim_config n)
      ~elements:n
  in
  let key = Printf.sprintf "engine.n=%d.%s" n in
  let counters =
    snapshot_counters snap ~section:"platform" ~key
      [ "events_drained"; "worker_arrivals"; "completions" ]
  in
  let get name = find_counter counters (key name) in
  {
    counters;
    checks =
      [
        ( key "events_drained = worker_arrivals + completions",
          match
            (get "events_drained", get "worker_arrivals", get "completions")
          with
          | Some events, Some arrivals, Some completions ->
              events = arrivals + completions
          | _ -> false );
      ];
  }

(* The tDP planner is pure integer/float arithmetic over a fixed scan
   order, so these pin the DP scan order, the upper-bound pruning and
   the memoization policy. *)
let planner_counters =
  [ "states_visited"; "memo_hits"; "memo_misses"; "ub_pruned_branches" ]

(* One cold solve; its own accounting must agree with the counter. *)
let opcheck_planner_cold (c0, b) =
  let metrics = Metrics.create () in
  let sol =
    Tdp.solve ~metrics (Problem.create ~elements:c0 ~budget:b ~latency:model)
  in
  let key = Printf.sprintf "planner.cold.c0=%d.b=%d.%s" c0 b in
  let counters =
    snapshot_counters (Metrics.snapshot metrics) ~section:"planner" ~key
      planner_counters
  in
  {
    counters;
    checks =
      [
        ( key "states_visited = sol.states_visited",
          Option.equal Int.equal
            (find_counter counters (key "states_visited"))
            (Some sol.Tdp.states_visited) );
      ];
  }

(* The cross-solve cache protocol: one cache and one registry across a
   c0=300 budget sweep. The first budget is binding (c0*2 - 1), the
   middle ones span the clamp boundary, and the last repeats an earlier
   budget, so the final solve is a pure arena replay. *)
let opcheck_planner_sweep () =
  let metrics = Metrics.create () in
  let cache = Tdp.Cache.create () in
  let solve b =
    Tdp.solve ~metrics ~cache
      (Problem.create ~elements:300 ~budget:b ~latency:model)
  in
  List.iter (fun b -> ignore (solve b)) [ 599; 1200; 2400; 4800 ];
  let replay = solve 1200 in
  {
    counters =
      snapshot_counters (Metrics.snapshot metrics) ~section:"planner"
        ~key:(Printf.sprintf "planner.sweep.c0=300.%s")
        (planner_counters @ [ "plan_cache_hits"; "plan_cache_misses" ]);
    checks =
      [
        ( "planner.sweep.c0=300: repeated-budget solve settles 0 new states",
          replay.Tdp.states_visited = 0 );
      ];
  }

(* The closed loop under a mid-run supply drop (the Fig_adapt shape,
   scaled down): 6 runs at seed 107, On_drift 0.5 re-fits, supply x0.2
   from round 1. A drift threshold applied to the wrong quantity, a
   window that stops clearing or a re-fit that silently stops
   installing lands here, and so does a re-fit that evicts the
   problem's plan tables from a cache the runs share. *)
let opcheck_adaptive () =
  let source scale =
    Engine.Simulated
      {
        platform = X.Fig_adapt.slow_platform scale;
        rwl = { Rwl.votes = 3; error = W.Uniform 0.15 };
      }
  in
  let problem = Problem.create ~elements:150 ~budget:450 ~latency:model in
  let refit = Adaptive.On_drift 0.5 in
  let source_shift = (1, source 0.2) in
  let replicate jobs =
    Adaptive.replicate ~jobs ~source:(source 1.0) ~refit ~source_shift ~runs:6
      ~seed:107 ~problem ~selection:Selection.tournament ()
  in
  (* The same 6 runs through one caller cache: re-fits plan on their
     own cache, so the problem's tables are built once and reused. *)
  let cache = Tdp.Cache.create () in
  let shared =
    Array.map
      (fun rng ->
        let truth = G.random rng problem.Problem.elements in
        Adaptive.run ~cache ~source:(source 1.0) ~refit ~source_shift rng
          ~problem ~selection:Selection.tournament truth)
      (Engine.per_run_rngs ~runs:6 ~seed:107)
  in
  let counters (a : Adaptive.aggregate) =
    [
      ("adaptive.replans", a.total_replans);
      ("adaptive.refits", a.total_refits);
      ("adaptive.drift_detected", a.total_drift_detected);
      ("adaptive.replans_on_drift", a.total_replans_on_drift);
    ]
  in
  let seq = replicate 1 in
  let par = replicate 4 in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 shared in
  let shared_agg =
    {
      Adaptive.engine_aggregate =
        Engine.aggregate_results ~runs:6
          ~timing:
            (Engine.make_timing ~jobs:1 ~runs:6 (Crowdmax_obs.Clock.now ()))
          (Array.map (fun r -> r.Adaptive.engine_result) shared);
      total_replans = sum (fun r -> r.Adaptive.replans);
      total_refits = sum (fun r -> r.Adaptive.refits);
      total_drift_detected = sum (fun r -> r.Adaptive.drift_detected);
      total_replans_on_drift = sum (fun r -> r.Adaptive.replans_on_drift);
    }
  in
  let equal_aggregates (a : Adaptive.aggregate) (b : Adaptive.aggregate) =
    Engine.equal_stats a.engine_aggregate b.engine_aggregate
    && List.equal
         (fun (_, x) (_, y) -> Int.equal x y)
         (counters a) (counters b)
  in
  {
    counters = counters seq;
    checks =
      [
        ( "adaptive: replans_on_drift <= refits <= drift_detected",
          seq.total_replans_on_drift <= seq.total_refits
          && seq.total_refits <= seq.total_drift_detected );
        ( "adaptive: jobs=4 aggregate = jobs=1 aggregate",
          equal_aggregates seq par );
        ( "adaptive: caller's plan cache built once across the 6 refitting runs",
          Tdp.Cache.misses cache = 1 && equal_aggregates seq shared_agg );
      ];
  }

module Server = Crowdmax_server.Server
module Contention = Crowdmax_latency.Contention

(* Four staggered queries (mixed size, budget, votes and deadline) on
   one shared marketplace under contention-aware planning, seed 113.
   One metered run on the seed's rng gives the server counters and the
   platform's shared-mode ones; 4-run replicates at jobs 1 and 4 must
   agree. An admission on the wrong step, a re-plan that stops
   detecting load shifts or a withdrawal that stops discarding lands
   here. *)
let opcheck_server () =
  let specs =
    [|
      Server.query_spec ~label:"a" ~elements:120 ~budget:960 ();
      Server.query_spec ~label:"b" ~elements:80 ~budget:200
        ~deadline:(Engine.Fixed (Model.eval model 60)) ();
      Server.query_spec ~label:"c" ~elements:100 ~budget:800 ~votes:2
        ~deadline:(Engine.Quantile 0.9) ~admit_step:1 ();
      Server.query_spec ~label:"d" ~elements:60 ~budget:150 ~admit_step:2 ();
    |]
  in
  let contention () = Contention.create ~base:model ~beta:0.25 in
  let metrics = Metrics.create () in
  let rng = Rng.create 113 in
  let truths =
    Array.map (fun (s : Server.query_spec) -> G.random rng s.Server.elements)
      specs
  in
  let result =
    Server.run ~metrics ~contention:(contention ())
      ~platform:(Crowdmax_crowd.Platform.create ())
      ~latency:model ~selection:Selection.tournament rng specs truths
  in
  let replicate jobs =
    Server.replicate ~jobs ~contention:(contention ())
      ~platform:(Crowdmax_crowd.Platform.create ())
      ~latency:model ~selection:Selection.tournament ~runs:4 ~seed:113 specs ()
  in
  let snap = Metrics.snapshot metrics in
  let key = Printf.sprintf "server.%s" in
  let counters =
    snapshot_counters snap ~section:"server" ~key
      [
        "queries_admitted"; "queries_completed"; "fleet_steps"; "rounds_run";
        "questions_posted"; "replans"; "contention_replans"; "deadline_hits";
      ]
    @ snapshot_counters snap ~section:"platform" ~key
        [ "shared_calls"; "shared_discarded_answers" ]
  in
  let get name = find_counter counters (key name) in
  {
    counters;
    checks =
      [
        ( "server: contention_replans <= replans",
          match (get "contention_replans", get "replans") with
          | Some contention_replans, Some replans ->
              contention_replans <= replans
          | _ -> false );
        ( "server: result.contention_replans = server/contention_replans",
          Option.equal Int.equal (get "contention_replans")
            (Some result.Server.contention_replans) );
        ( "server: jobs=4 aggregate = jobs=1 aggregate",
          Server.equal_aggregate (replicate 1) (replicate 4) );
      ];
  }

(* Run in this order; their counters concatenate in [opcheck_pins]
   order. *)
let opcheck_scenarios =
  [
    (fun () -> opcheck_engine 100);
    (fun () -> opcheck_engine 500);
    (fun () -> opcheck_planner_cold (40, 108));
    (fun () -> opcheck_planner_cold (200, 1600));
    (fun () -> opcheck_planner_cold (500, 999));
    (fun () -> opcheck_planner_cold (500, 4000));
    opcheck_planner_sweep;
    opcheck_adaptive;
    opcheck_server;
  ]

let opcheck_pins =
  [
    ("engine.n=100.events_drained", 6617);
    ("engine.n=100.worker_arrivals", 902);
    ("engine.n=100.completions", 5715);
    ("engine.n=500.events_drained", 60795);
    ("engine.n=500.worker_arrivals", 8670);
    ("engine.n=500.completions", 52125);
    ("planner.cold.c0=40.b=108.states_visited", 2);
    ("planner.cold.c0=40.b=108.memo_hits", 1);
    ("planner.cold.c0=40.b=108.memo_misses", 2);
    ("planner.cold.c0=40.b=108.ub_pruned_branches", 32);
    ("planner.cold.c0=200.b=1600.states_visited", 2);
    ("planner.cold.c0=200.b=1600.memo_hits", 1);
    ("planner.cold.c0=200.b=1600.memo_misses", 2);
    ("planner.cold.c0=200.b=1600.ub_pruned_branches", 178);
    ("planner.cold.c0=500.b=999.states_visited", 44887);
    ("planner.cold.c0=500.b=999.memo_hits", 1490593);
    ("planner.cold.c0=500.b=999.memo_misses", 44887);
    ("planner.cold.c0=500.b=999.ub_pruned_branches", 2046204);
    ("planner.cold.c0=500.b=4000.states_visited", 6);
    ("planner.cold.c0=500.b=4000.memo_hits", 1);
    ("planner.cold.c0=500.b=4000.memo_misses", 6);
    ("planner.cold.c0=500.b=4000.ub_pruned_branches", 541);
    ("planner.sweep.c0=300.states_visited", 18939);
    ("planner.sweep.c0=300.memo_hits", 422884);
    ("planner.sweep.c0=300.memo_misses", 18939);
    ("planner.sweep.c0=300.ub_pruned_branches", 501583);
    ("planner.sweep.c0=300.plan_cache_hits", 4);
    ("planner.sweep.c0=300.plan_cache_misses", 1);
    ("adaptive.replans", 20);
    ("adaptive.refits", 6);
    ("adaptive.drift_detected", 6);
    ("adaptive.replans_on_drift", 5);
    ("server.queries_admitted", 4);
    ("server.queries_completed", 4);
    ("server.fleet_steps", 6);
    ("server.rounds_run", 10);
    ("server.questions_posted", 1109);
    ("server.replans", 10);
    ("server.contention_replans", 5);
    ("server.deadline_hits", 5);
    ("server.shared_calls", 5);
    ("server.shared_discarded_answers", 63);
  ]

(* Every scenario, run once: the counters and checks they measured. *)
let opcheck_measure () =
  let ms = List.map (fun run -> run ()) opcheck_scenarios in
  ( List.concat_map (fun m -> m.counters) ms,
    List.concat_map (fun m -> m.checks) ms )

(* Newest history row that carries counters (and, when
   CROWDMAX_BENCH_BASELINE names a commit prefix, whose commit starts
   with it), as (commit, counters). Malformed lines are a hard error so
   the file cannot rot silently. *)
let history_baseline () =
  let rows =
    if not (Sys.file_exists bench_history_file) then []
    else
      In_channel.with_open_text bench_history_file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.mapi (fun i line ->
             if String.equal (String.trim line) "" then None
             else
               match J.of_string line with
               | row -> Some row
               | exception J.Parse_error { position; message } ->
                   Printf.eprintf
                     "bench: %s:%d: malformed history row (byte %d: %s)\n"
                     bench_history_file (i + 1) position message;
                   exit 2)
      |> List.filter_map Fun.id
  in
  let prefix_ok commit =
    match Sys.getenv_opt "CROWDMAX_BENCH_BASELINE" with
    | None -> true
    | Some prefix -> String.starts_with ~prefix commit
  in
  List.find_map
    (fun row ->
      let commit =
        Option.value ~default:"unknown"
          (Option.bind (J.member "commit" row) J.to_str)
      in
      match J.member "counters" row with
      | Some (J.Obj kvs) when prefix_ok commit ->
          Some
            ( commit,
              List.filter_map
                (fun (k, v) -> Option.map (fun n -> (k, n)) (J.to_int v))
                kvs )
      | _ -> None)
    (List.rev rows)

let history_drift_pct = 2.0

let opcheck () =
  section "operation-count gate (pins, structural checks, history drift)";
  let counters, checks = opcheck_measure () in
  if Option.is_some (Sys.getenv_opt "CROWDMAX_OPCHECK_PRINT") then begin
    print_endline "let opcheck_pins =\n  [";
    List.iter (fun (key, v) -> Printf.printf "    (%S, %d);\n" key v) counters;
    print_endline "  ]"
  end
  else begin
    let failures = ref 0 in
    let fail line =
      incr failures;
      Printf.printf "  %s\n" line
    in
    (* Each key of [expected] the run lacks, or holds more than
       [tolerance_pct] away from the value [source] quotes, fails. *)
    let check_against ~source ~tolerance_pct expected =
      List.iter
        (fun (key, want) ->
          match find_counter counters key with
          | None ->
              Printf.ksprintf fail "%s: missing from its scenario's run, %s %d"
                key source want
          | Some got ->
              let drift =
                100.0 *. float_of_int (got - want)
                /. float_of_int (max (abs want) 1)
              in
              if Float.abs drift > tolerance_pct then
                Printf.ksprintf fail "%s = %d, %s %d (%+.1f%%)" key got source
                  want drift)
        expected
    in
    check_against ~source:"pinned" ~tolerance_pct:0.0 opcheck_pins;
    List.iter
      (fun (key, v) ->
        if Option.is_none (find_counter opcheck_pins key) then
          Printf.ksprintf fail "%s = %d: not pinned" key v)
      counters;
    List.iter
      (fun (name, holds) -> if not holds then fail ("check failed: " ^ name))
      checks;
    if !failures = 0 then
      Printf.printf "  ok: %d pinned counters, %d structural checks hold\n"
        (List.length opcheck_pins) (List.length checks);
    (match Sys.getenv_opt "CROWDMAX_BENCH_BASELINE" with
    | Some "skip" ->
        print_endline
          "  CROWDMAX_BENCH_BASELINE=skip: history comparison skipped"
    | requested -> (
        match (history_baseline (), requested) with
        | None, Some prefix ->
            Printf.eprintf
              "bench: no counters-bearing row in %s matches commit prefix %S\n"
              bench_history_file prefix;
            exit 1
        | None, None ->
            Printf.printf
              "  no counters-bearing row in %s yet; run `main.exe \
               history-append` to record one\n"
              bench_history_file
        | Some (commit, row), _ ->
            List.iter
              (fun (key, v) ->
                if Option.is_none (find_counter row key) then
                  Printf.printf "  %s: new counter (no baseline), now %d\n" key
                    v)
              counters;
            let before = !failures in
            check_against ~source:("commit " ^ commit ^ " has")
              ~tolerance_pct:history_drift_pct row;
            if !failures = before then
              Printf.printf "  ok: %d counters within %.0f%% of commit %s\n"
                (List.length counters) history_drift_pct commit
            else
              print_endline
                "  if the drift is intended, re-baseline with `main.exe \
                 history-append` or set CROWDMAX_BENCH_BASELINE"));
    if !failures > 0 then begin
      Printf.printf "operation-count gate FAILED (%d failures)\n%!" !failures;
      exit 1
    end
  end

let history_append () =
  section "bench history: record deterministic counter row";
  require_clean_tree ();
  let counters, _checks = opcheck_measure () in
  append_bench_history ~schema:"crowdmax-bench-history/v2"
    [ ("counters", J.Obj (List.map (fun (k, v) -> (k, J.int v)) counters)) ]

(* --- bechamel micro-benchmarks ------------------------------------------ *)

open Bechamel
open Toolkit

let tdp_test name c0 b =
  Test.make ~name (Staged.stage (fun () ->
      ignore (Tdp.solve (Problem.create ~elements:c0 ~budget:b ~latency:model))))

let tdp_bottom_up_test name c0 b =
  Test.make ~name (Staged.stage (fun () ->
      ignore
        (Tdp.solve_bottom_up
           (Problem.create ~elements:c0 ~budget:b ~latency:model))))

let selection_test name sel c0 b =
  let input =
    {
      Selection.budget = b;
      candidates = Array.init c0 (fun i -> i);
      history = Dag.create c0;
      round_index = 0;
      total_rounds = 1;
      carried = [];
    }
  in
  Test.make ~name (Staged.stage (fun () ->
      let rng = Rng.create 42 in
      ignore (sel.Selection.select rng input)))

let scoring_test name n =
  let rng = Rng.create 7 in
  let truth = Rng.permutation rng n in
  let dag = Dag.create n in
  for _ = 1 to 4 * n do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then begin
      let w, l = if truth.(a) > truth.(b) then (a, b) else (b, a) in
      Dag.add_answer_unchecked dag ~winner:w ~loser:l
    end
  done;
  Test.make ~name (Staged.stage (fun () -> ignore (Scoring.scores_array dag)))

let rwl_test name n votes =
  let rng0 = Rng.create 11 in
  let truth = G.random rng0 n in
  let questions =
    List.concat
      (List.init n (fun i -> List.init (n - 1 - i) (fun k -> (i, i + 1 + k))))
  in
  Test.make ~name (Staged.stage (fun () ->
      let rng = Rng.create 13 in
      ignore (Rwl.resolve rng { Rwl.votes; error = W.Uniform 0.15 } ~truth questions)))

let engine_test name c0 b selection =
  let cfg = tdp_config ~selection c0 b in
  Test.make ~name (Staged.stage (fun () ->
      let rng = Rng.create 17 in
      let truth = G.random rng c0 in
      ignore (Engine.run rng cfg truth)))

(* Ablation: random vs seeded (round-robin) tournament assignment. *)
let assignment_test name assign =
  let elements = Array.init 512 (fun i -> i) in
  Test.make ~name (Staged.stage (fun () -> ignore (assign elements 64)))

let micro_tests =
  Test.make_grouped ~name:"crowdmax"
    [
      Test.make_grouped ~name:"tdp (Fig 15 kernel)"
        [
          tdp_test "solve c0=250 b=2000" 250 2000;
          tdp_test "solve c0=500 b=4000" 500 4000;
          tdp_test "solve c0=1000 b=8000" 1000 8000;
          tdp_test "solve c0=500 b=999 (tight)" 500 999;
          tdp_bottom_up_test "bottom-up c0=60 b=400 (ablation)" 60 400;
          tdp_test "top-down  c0=60 b=400 (ablation)" 60 400;
        ];
      Test.make_grouped ~name:"selection (one round, c0=500)"
        [
          selection_test "tournament b=2250" Selection.tournament 500 2250;
          selection_test "spread b=2250" Selection.spread 500 2250;
          selection_test "complete b=2250" Selection.complete 500 2250;
          selection_test "greedy b=2250" Selection.greedy 500 2250;
        ];
      Test.make_grouped ~name:"substrates"
        [
          scoring_test "scoring n=1000" 1000;
          rwl_test "rwl n=40 votes=3" 40 3;
          rwl_test "rwl n=40 votes=1" 40 1;
        ];
      Test.make_grouped ~name:"engine (full MAX run)"
        [
          engine_test "tournament c0=200 b=1200" 200 1200 Selection.tournament;
          engine_test "ct25 c0=200 b=1200" 200 1200 Selection.ct25;
        ];
      Test.make_grouped ~name:"ablation: tournament assignment"
        [
          assignment_test "random shuffle" (fun els k ->
              let rng = Rng.create 3 in
              Crowdmax_tournament.Tournament.assign rng els k);
          assignment_test "seeded round-robin" (fun els k ->
              Crowdmax_tournament.Tournament.assign_seeded els k);
        ];
    ]

let micro () =
  section "micro-benchmarks (bechamel, monotonic clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances micro_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  let table =
    Crowdmax_util.Table.create
      [ ("benchmark", Crowdmax_util.Table.Left);
        ("time/run", Crowdmax_util.Table.Right);
        ("r²", Crowdmax_util.Table.Right) ]
  in
  let human ns =
    if ns < 1_000.0 then Printf.sprintf "%.0f ns" ns
    else if ns < 1_000_000.0 then Printf.sprintf "%.2f us" (ns /. 1_000.0)
    else if ns < 1_000_000_000.0 then Printf.sprintf "%.2f ms" (ns /. 1_000_000.0)
    else Printf.sprintf "%.2f s" (ns /. 1_000_000_000.0)
  in
  List.iter
    (fun (name, ols) ->
      let time =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> human t
        | _ -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "-"
      in
      Crowdmax_util.Table.add_row table [ name; time; r2 ])
    rows;
  Crowdmax_util.Table.print table

(* --- entry point --------------------------------------------------------- *)

let timed name f =
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "[%s: %.2f s wall, jobs=%d]\n%!" name
    (Unix.gettimeofday () -. t0)
    !jobs

let () =
  (* Strip --jobs/-j (argv overrides CROWDMAX_JOBS); the rest are
     benchmark names. *)
  let rec strip_jobs acc = function
    | [] -> List.rev acc
    | ("--jobs" | "-j") :: v :: rest ->
        jobs := parse_jobs ~source:"--jobs" v;
        strip_jobs acc rest
    | ("--jobs" | "-j") :: [] ->
        Printf.eprintf "bench: --jobs requires an argument\n";
        exit 2
    | a :: rest when String.length a > 7 && String.equal (String.sub a 0 7) "--jobs=" ->
        jobs :=
          parse_jobs ~source:"--jobs"
            (String.sub a 7 (String.length a - 7));
        strip_jobs acc rest
    | a :: rest -> strip_jobs (a :: acc) rest
  in
  let args = strip_jobs [] (List.tl (Array.to_list Sys.argv)) in
  let known =
    [
      ("fig11a", fig11a); ("fig11b", fig11b); ("fig12", fig12);
      ("fig13a", fig13a); ("fig13b", fig13b); ("fig14a", fig14a);
      ("fig14b", fig14b); ("fig15", fig15); ("findings", findings);
      ("figures", figures); ("ablations", ablations); ("micro", micro);
      ("engine", engine_bench);
      ("opcheck", opcheck);
      ("history-append", history_append);
    ]
  in
  match args with
  | [] ->
      timed "figures" figures;
      timed "ablations" ablations;
      timed "micro" micro;
      timed "engine" engine_bench
  | _ ->
      List.iter
        (fun a ->
          match
            Option.map snd
              (List.find_opt (fun (n, _) -> String.equal n a) known)
          with
          | Some f -> timed a f
          | None ->
              Printf.eprintf "unknown benchmark %S; known: %s\n" a
                (String.concat ", " (List.map fst known));
              exit 2)
        args
