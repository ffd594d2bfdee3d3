(* The deterministic operation-count gate. Runs fixed engine, planner,
   adaptive and server scenarios and checks their operation counters
   against pinned values and the newest counters row of
   BENCH_history.jsonl.

   Usage:
     dune exec bench/main.exe -- opcheck          # check (CI runs this)
     dune exec bench/main.exe -- history-append   # record a counters row

   Paper figures, the findings and the ablation tables are regenerated by
   `crowdmax experiment <name>`; wall-clock timing is crowdbench's job. *)

module X = Crowdmax_experiments
module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Selection = Crowdmax_selection.Selection
module Engine = Crowdmax_runtime.Engine
module Adaptive = Crowdmax_runtime.Adaptive
module G = Crowdmax_crowd.Ground_truth
module Rwl = Crowdmax_crowd.Rwl
module W = Crowdmax_crowd.Worker
module Rng = Crowdmax_util.Rng
module Metrics = Crowdmax_obs.Metrics
module J = Crowdmax_util.Json

let section title =
  Printf.printf "\n================ %s ================\n%!" title

let model = Model.paper_mturk

(* The canonical simulated engine config for [n] elements: the tDP
   allocation of budget 8n under [model], tournament selection, 3-vote
   RWL at 15% worker error. *)
let engine_sim_config n =
  let sol =
    Tdp.solve (Problem.create ~elements:n ~budget:(8 * n) ~latency:model)
  in
  Engine.config
    ~source:
      (Engine.Simulated
         {
           platform = Crowdmax_crowd.Platform.create ();
           rwl = { Rwl.votes = 3; error = W.Uniform 0.15 };
         })
    ~allocation:sol.Tdp.allocation ~selection:Selection.tournament
    ~latency_model:model ()

(* --- commit-keyed history ------------------------------------------------ *)

(* One compact JSONL row per [history-append], appended (never
   rewritten). Keyed by commit so rows can be joined back to the code
   that produced them. *)
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
   append while the work tree differs from HEAD in anything but the
   history file itself. *)
let require_clean_tree () =
  match
    git (Printf.sprintf "status --porcelain -- . ':!%s'" bench_history_file)
  with
  | Some dirty when not (String.equal dirty "") ->
      Printf.eprintf
        "bench: refusing to append to %s; commit first, so the row names \
         the tree it measured. The work tree differs from HEAD in:\n%s"
        bench_history_file dirty;
      exit 2
  | _ -> ()

(* Append one row keyed to HEAD: the schema, commit, time and build
   profile, then [fields]. *)
let append_bench_history fields =
  let schema = "crowdmax-bench-history/v2" in
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
  append_bench_history
    [ ("counters", J.Obj (List.map (fun (k, v) -> (k, J.int v)) counters)) ]

(* --- entry point --------------------------------------------------------- *)

let () =
  let known = [ ("opcheck", opcheck); ("history-append", history_append) ] in
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
      Printf.eprintf "usage: main.exe (opcheck | history-append)...\n";
      exit 2
  | args ->
      List.iter
        (fun a ->
          match List.find_opt (fun (n, _) -> String.equal n a) known with
          | Some (_, f) -> f ()
          | None ->
              Printf.eprintf "unknown subcommand %S; known: %s\n" a
                (String.concat ", " (List.map fst known));
              exit 2)
        args
