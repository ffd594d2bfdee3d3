(* Measurement: the untraced run that gives the end-to-end metrics and
   the traced run that gives the per-layer ones.

   Every run is closed-loop: one driver call at a time, from one
   process on one domain. Passes repeat until [seconds] of measurement
   have elapsed; each pass repeats the same inputs, so counts
   (allocation, simulated latency, correctness) are identical from
   pass to pass and only the wall-clock figures vary. *)

module Clock = Crowdmax_obs.Clock
module Metrics = Crowdmax_obs.Metrics
module Json = Crowdmax_util.Json
module Stats = Crowdmax_util.Stats
module Selection = Crowdmax_selection.Selection
module W = Workload
module R = Recorder

(* The metric catalogue; BENCHMARK.json declares the same names and
   units (the self-test checks the two agree). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("queries_per_s", "1/s");
    ("query_ms_p50", "ms");
    ("query_ms_p75", "ms");
    ("alloc_kwords_per_query", "kwords");
    ("heap_peak_mb", "MB");
    ("crowd_latency_s_mean", "s");
    ("correct_share", "share");
  ]

(* Per-layer metrics are totals over one traced pass: the workload's
   set-up plus its fixed number of driver calls. *)
let per_layer =
  [
    ("tdp.calls", "count");
    ("tdp.busy_ms", "ms");
    ("tdp.ms_per_call_p50", "ms");
    ("tdp.minor_kwords", "kwords");
    ("tdp.cache_hits", "count");
    ("tdp.cache_misses", "count");
    ("tdp.states_settled", "count");
    ("selection.calls", "count");
    ("selection.busy_ms", "ms");
    ("selection.pairs", "count");
    ("selection.minor_kwords", "kwords");
    ("platform.calls", "count");
    ("platform.busy_ms", "ms");
    ("platform.raw_questions", "count");
    ("platform.minor_kwords", "kwords");
    ("platform.events_drained", "count");
    ("platform.discarded_share", "share");
    ("rwl.calls", "count");
    ("rwl.busy_ms", "ms");
    ("rwl.raw_votes", "count");
    ("rwl.minor_kwords", "kwords");
    ("answer_dag.answers_added", "count");
    ("answer_dag.busy_ms", "ms");
    ("latency.refits", "count");
    ("latency.busy_ms", "ms");
    ("engine.self_ms", "ms");
    ("adaptive.self_ms", "ms");
    ("server.self_ms", "ms");
    ("engine.padded_share", "share");
    ("adaptive.replans", "count");
    ("server.contention_replans", "count");
    ("server.deadline_hit_share", "share");
    ("trace.attributed_share", "share");
    ("trace.overhead_share", "share");
    ("metrics.overhead_share", "share");
  ]

type result = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  errors : string list;  (** first failure of each kind *)
  passes : int;  (** measured passes *)
  samples : int;  (** timed driver calls behind the percentiles *)
  metrics : (string * string * float) list;  (** name, unit, value *)
  notes : (string * float) list;  (** diagnostics outside the catalogue *)
}

let median xs = Stats.percentile (Array.of_list xs) 50.0
let share a b = if b > 0.0 then a /. b else 0.0

(* Failure bookkeeping shared by every pass of a run. *)
type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let note_error ledger msg =
  if not (List.mem msg ledger.errors) then ledger.errors <- msg :: ledger.errors

type timed_pass = {
  walls : float array;  (** seconds per driver call *)
  spans : (float * float) array;  (** call start/stop, Clock seconds *)
  words : float;  (** minor words allocated inside driver calls *)
  outcomes : W.outcome array;
  events : R.event array array;  (** per call; empty unless traced *)
}

(* Run one pass: time every driver call, then check the outcomes. A
   call that raises, a query that breaks an invariant and a pass whose
   outcomes differ from the library's replicate path all count as
   failed queries. *)
let run_pass ledger (inst : W.instance) (pass : W.pass) ?recorder ?after () =
  let n = pass.W.calls in
  let walls = Array.make n 0.0 in
  let spans = Array.make n (0.0, 0.0) in
  let events = Array.make n [||] in
  let words = ref 0.0 in
  let raised = ref 0 in
  for i = 0 to n - 1 do
    let t0 = Clock.now () in
    let w0 = Gc.minor_words () in
    (try pass.W.call i
     with e ->
       incr raised;
       note_error ledger ("driver call raised " ^ Printexc.to_string e));
    let w1 = Gc.minor_words () in
    let t1 = Clock.now () in
    words := !words +. (w1 -. w0);
    walls.(i) <- t1 -. t0;
    spans.(i) <- (t0, t1);
    Option.iter (fun r -> events.(i) <- R.take r) recorder;
    Option.iter (fun f -> f i events.(i) (t0, t1)) after
  done;
  let outcomes, check = pass.W.finish () in
  let nq = n * inst.W.queries_per_call in
  let violations =
    Array.fold_left
      (fun acc o ->
        match W.violation o with
        | None -> acc
        | Some msg ->
            note_error ledger msg;
            acc + 1)
      0 outcomes
  in
  let failed =
    match check with
    | Ok () when !raised = 0 -> violations
    | Ok () -> min nq (violations + (!raised * inst.W.queries_per_call))
    | Error msg ->
        note_error ledger msg;
        nq
  in
  ledger.attempted <- ledger.attempted + nq;
  ledger.failed <- ledger.failed + failed;
  { walls; spans; words = !words; outcomes; events }

(* One timed set-up, its result discarded. *)
let time_setup (w : W.t) ~smoke seed =
  let t0 = Clock.now () in
  ignore (Sys.opaque_identity (w.W.setup ~smoke seed));
  Clock.now () -. t0


(* Machine-speed calibration. A shared machine's speed can drift by a
   fifth and more over minutes (other tenants share its caches and
   cores), and no statistic within one run can undo a run that is slow
   throughout.
   So between calls, at most every 0.1 s, the run times a fixed
   calibration loop that shares no code and no heap with the program:
   a pseudo-random walk over an 8 MB int array, sensitive to the same
   cache and memory contention the drivers see. Wall-clock figures are
   reported scaled by [reference_calibration_s / fastest calibration of
   the run], that is in milliseconds of a machine on which the loop
   takes [reference_calibration_s] (its fastest time on the 2-vCPU Xeon
   VM the benchmark was tuned on). The raw figures and the factor are
   kept in the result record. *)
let calibration_buf = Array.make (1 lsl 20) 0

let calibration_loop () =
  let t0 = Clock.now () in
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to 400_000 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    let j = v land (Array.length calibration_buf - 1) in
    let c = Array.unsafe_get calibration_buf j in
    Array.unsafe_set calibration_buf j (c + (v land 7));
    acc := !acc + if c land 1 = 0 then c else c lsr 1
  done;
  ignore (Sys.opaque_identity !acc);
  Clock.now () -. t0

let reference_calibration_s = 0.007

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int s.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

(* Repeat [f] for about [seconds], at least once: stop when another run
   as long as the last one would end past the deadline. *)
let repeat_for seconds f =
  let start = Clock.now () in
  let rec go acc =
    let t0 = Clock.now () in
    let acc = f () :: acc in
    let now = Clock.now () in
    if now +. (now -. t0) -. start > seconds then List.rev acc else go acc
  in
  go []

(* Wall-clock figures of a run. Every pass repeats the same calls on
   the same inputs, so call [i] does the same work in every pass and
   its timings differ only by how much the machine disturbed it. On a
   shared machine that disturbance comes in bursts of a second or
   more, so each call keeps its fastest timing over the passes, and
   the percentiles and the throughput are taken over those. *)
type timing = { p50_ms : float; p75_ms : float; calls_per_s : float; calls : int }

let quiet_timing (passes : float array list) =
  let best =
    match passes with
    | [] -> invalid_arg "Harness.quiet_timing: no passes"
    | first :: rest ->
        let best = Array.copy first in
        List.iter (Array.iteri (fun i s -> best.(i) <- Float.min best.(i) s)) rest;
        best
  in
  let ms = Array.map (fun s -> s *. 1e3) best in
  {
    p50_ms = Stats.percentile ms 50.0;
    p75_ms = Stats.percentile ms 75.0;
    calls_per_s = float_of_int (Array.length best) /. Array.fold_left ( +. ) 0.0 best;
    calls = Array.length best;
  }

let untraced ?(smoke = false) (w : W.t) ~seed ~seconds =
  let ledger = { attempted = 0; failed = 0; errors = [] } in
  let inst = w.W.setup ~smoke seed in
  (* The library's replicate path first: the reference for the output
     check, and the warm-up. Every pass starts from fresh driver state,
     so passes allocate identically. *)
  inst.W.reference ();
  let calibrations = ref [] and last = ref Float.neg_infinity in
  let calibrate _ _ _ =
    if Clock.now () -. !last >= 0.1 then begin
      calibrations := calibration_loop () :: !calibrations;
      last := Clock.now ()
    end
  in
  let pass () =
    run_pass ledger inst (inst.W.new_pass W.plain) ~after:calibrate ()
  in
  (* The first pass follows a fixed sequence of work (set-up, reference,
     one pass), so the heap peak read after it repeats for a seed. *)
  let first = pass () in
  let heap = heap_peak_mb () in
  (* Half the passes before the summary replicate and half after: the
     wider window gives each call a better chance of a quiet pass. *)
  let early = first :: repeat_for (seconds /. 2.0) pass in
  let summary = inst.W.summary () in
  if
    not
      (Float.is_finite summary.W.mean_latency
      && Float.is_finite summary.W.correct_share)
  then begin
    note_error ledger "non-finite replicate summary";
    ledger.failed <- ledger.failed + 1
  end;
  (* Set-up is timed between the later passes, so its samples spread
     over the run like the calls' do, spending at most about a quarter
     of that half on it; at least five samples, median reported. *)
  let setups = ref [] and setup_spent = ref 0.0 in
  let late_start = Clock.now () in
  let late =
    repeat_for (seconds /. 2.0) (fun () ->
        let p = pass () in
        if !setup_spent <= 0.25 *. (Clock.now () -. late_start) then begin
          (* Millisecond set-ups repeat within one slot, up to 20 ms. *)
          let slot = ref 0.0 and reps = ref 0 in
          while !slot < 0.02 && !reps < 50 do
            let t = time_setup w ~smoke seed in
            setups := t :: !setups;
            slot := !slot +. t;
            incr reps
          done;
          setup_spent := !setup_spent +. !slot
        end;
        p)
  in
  while List.length !setups < 5 do
    setups := time_setup w ~smoke seed :: !setups
  done;
  let setup_s = median !setups in
  let passes = early @ late in
  let t = quiet_timing (List.map (fun p -> p.walls) passes) in
  let slowdown =
    List.fold_left Float.min Float.infinity !calibrations /. reference_calibration_s
  in
  let qpc = float_of_int inst.W.queries_per_call in
  let calls = List.fold_left (fun acc p -> acc + Array.length p.walls) 0 passes in
  let words = List.fold_left (fun acc p -> acc +. p.words) 0.0 passes in
  let metrics =
    [
      ("setup_s", setup_s /. slowdown);
      ("queries_per_s", t.calls_per_s *. qpc *. slowdown);
      ("query_ms_p50", t.p50_ms /. slowdown);
      ("query_ms_p75", t.p75_ms /. slowdown);
      ("alloc_kwords_per_query", words /. (float_of_int calls *. qpc) /. 1e3);
      ("heap_peak_mb", heap);
      ("crowd_latency_s_mean", summary.W.mean_latency);
      ("correct_share", summary.W.correct_share);
    ]
  in
  {
    workload = w.W.name;
    seed;
    traced = false;
    attempted = ledger.attempted;
    failed = ledger.failed;
    errors = List.rev ledger.errors;
    passes = List.length passes;
    samples = t.calls;
    metrics = List.map (fun (n, u) -> (n, u, List.assoc n metrics)) end_to_end;
    notes =
      [
        ("summary_queries", float_of_int summary.W.runs);
        ("machine_slowdown", slowdown);
        ("calibrations", float_of_int (List.length !calibrations));
        ("raw.setup_s", setup_s);
        ("raw.queries_per_s", t.calls_per_s *. qpc);
        ("raw.query_ms_p50", t.p50_ms);
        ("raw.query_ms_p75", t.p75_ms);
        ("calls_per_pass", float_of_int (Array.length (List.hd passes).walls));
      ];
  }

(* Per-layer figures of one traced pass. *)
let layer_figures ~(setup : R.tally) (p : timed_pass) (items : R.item list)
    (spans : R.span list) =
  let busy = Array.make R.layer_count 0.0 in
  List.iter
    (fun (s : R.span) ->
      let i = R.layer_index s.R.layer in
      busy.(i) <- busy.(i) +. ((s.R.stop -. s.R.start) *. 1e3))
    spans;
  let wall_ms = Array.fold_left ( +. ) 0.0 p.walls *. 1e3 in
  let attributed = Array.fold_left ( +. ) 0.0 busy in
  let words = Array.make R.layer_count 0.0 in
  List.iter
    (fun (i : R.item) ->
      let k = R.layer_index i.R.layer in
      words.(k) <- words.(k) +. i.R.words)
    items;
  List.iter
    (fun (i : R.item) ->
      let k = R.layer_index i.R.layer in
      busy.(k) <- busy.(k) +. i.R.ms;
      words.(k) <- words.(k) +. i.R.words)
    setup.R.setup_items;
  let events = Array.concat (Array.to_list p.events) in
  Array.iter
    (fun (e : R.event) ->
      let k = R.layer_index R.Select in
      words.(k) <- words.(k) +. e.R.words)
    events;
  (busy, words, wall_ms, attributed, events)

(* One pass through the recording selector, each call replayed and laid
   out as spans right after it ran, while its data is as warm as it was
   for the live call. *)
let traced_pass ledger (inst : W.instance) =
  let recorder = R.create Selection.tournament in
  let pass =
    inst.W.new_pass { W.recorder = Some recorder; metrics = Metrics.disabled }
  in
  let tally = R.tally () in
  let items = ref [] and spans = ref [] in
  let after i events (q_start, q_stop) =
    let gaps = pass.W.replay tally i events in
    items := List.concat (Array.to_list gaps) :: !items;
    spans := R.layout ~call:i ~q_start ~q_stop events gaps :: !spans
  in
  let tp = run_pass ledger inst pass ~recorder ~after () in
  pass.W.totals tally;
  (tp, tally, List.concat (List.rev !items), List.concat (List.rev !spans))

let traced ?(smoke = false) (w : W.t) ~seed ~seconds =
  let ledger = { attempted = 0; failed = 0; errors = [] } in
  let setup = R.tally () in
  let inst = w.W.setup ~tally:setup ~smoke seed in
  inst.W.reference ();
  let cycle () =
    let plain = run_pass ledger inst (inst.W.new_pass W.plain) () in
    let tp, tally, items, spans = traced_pass ledger inst in
    let registry = Metrics.create () in
    let mp =
      run_pass ledger inst (inst.W.new_pass { W.recorder = None; metrics = registry }) ()
    in
    (plain, tp, tally, items, spans, Metrics.snapshot registry, mp)
  in
  let cycles = repeat_for seconds cycle in
  let p50 f = (quiet_timing (List.map f cycles)).p50_ms in
  let plain_p50 = p50 (fun (p, _, _, _, _, _, _) -> p.walls) in
  let traced_p50 = p50 (fun (_, t, _, _, _, _, _) -> t.walls) in
  let metered_p50 = p50 (fun (_, _, _, _, _, _, m) -> m.walls) in
  let per_cycle (_, tp, tally, items, spans, snapshot, _) =
    let busy, words, wall_ms, attributed, events =
      layer_figures ~setup tp items spans
    in
    let count name = R.get setup name +. R.get tally name in
    let layer l = busy.(R.layer_index l) in
    let kwords l = words.(R.layer_index l) /. 1e3 in
    let find name =
      match Metrics.find snapshot ~section:"platform" name with
      | Some (Metrics.Count c) -> float_of_int c
      | _ -> 0.0
    in
    let self = wall_ms -. attributed in
    let driver_self d = if String.equal w.W.driver d then self else 0.0 in
    let solves = setup.R.solve_ms @ tally.R.solve_ms in
    [
      ("tdp.calls", count "tdp.calls");
      ("tdp.busy_ms", layer R.Tdp);
      ("tdp.ms_per_call_p50", if solves = [] then 0.0 else median solves);
      ("tdp.minor_kwords", kwords R.Tdp);
      ("tdp.cache_hits", count "tdp.cache_hits");
      ("tdp.cache_misses", count "tdp.cache_misses");
      ("tdp.states_settled", count "tdp.states_settled");
      ("selection.calls", float_of_int (Array.length events));
      ("selection.busy_ms", layer R.Select);
      ( "selection.pairs",
        float_of_int
          (Array.fold_left (fun acc (e : R.event) -> acc + List.length e.R.pairs) 0 events) );
      ("selection.minor_kwords", kwords R.Select);
      ("platform.calls", count "platform.calls");
      ("platform.busy_ms", layer R.Platform);
      ("platform.raw_questions", count "platform.raw_questions");
      ("platform.minor_kwords", kwords R.Platform);
      ("platform.events_drained", find "events_drained");
      ( "platform.discarded_share",
        share (find "shared_discarded_answers") (count "platform.raw_questions") );
      ("rwl.calls", count "rwl.calls");
      ("rwl.busy_ms", layer R.Rwl);
      ("rwl.raw_votes", count "rwl.raw_votes");
      ("rwl.minor_kwords", kwords R.Rwl);
      ("answer_dag.answers_added", count "answer_dag.answers_added");
      ("answer_dag.busy_ms", layer R.Answer_dag);
      ("latency.refits", count "latency.refits");
      ("latency.busy_ms", layer R.Latency);
      ("engine.self_ms", driver_self "engine");
      ("adaptive.self_ms", driver_self "adaptive");
      ("server.self_ms", driver_self "server");
      ("engine.padded_share", share (count "engine.padded") (count "engine.posted"));
      ("adaptive.replans", count "adaptive.replans");
      ("server.contention_replans", count "server.contention_replans");
      ( "server.deadline_hit_share",
        share (count "server.deadline_hits") (count "server.rounds") );
      ("trace.attributed_share", share attributed wall_ms);
      ("trace.overhead_share", (traced_p50 /. plain_p50) -. 1.0);
      ("metrics.overhead_share", (metered_p50 /. plain_p50) -. 1.0);
      ("trace.replay_mismatches", float_of_int (setup.R.replay_mismatches + tally.R.replay_mismatches));
      ("trace.gap_filled", float_of_int tally.R.gap_filled);
      ( "trace.clipped_ms",
        List.fold_left
          (fun acc (i : R.item) -> if Float.is_finite i.R.ms then acc +. i.R.ms else acc)
          0.0 items
        -. (attributed -. busy.(R.layer_index R.Select)) );
      ("trace.calls_per_pass", float_of_int (Array.length tp.walls));
    ]
  in
  let figures = List.map per_cycle cycles in
  let value name = median (List.map (List.assoc name) figures) in
  let samples =
    List.fold_left (fun acc (p, _, _, _, _, _, _) -> acc + Array.length p.walls) 0 cycles
  in
  {
    workload = w.W.name;
    seed;
    traced = true;
    attempted = ledger.attempted;
    failed = ledger.failed;
    errors = List.rev ledger.errors;
    passes = List.length cycles;
    samples;
    metrics = List.map (fun (n, u) -> (n, u, value n)) per_layer;
    notes =
      [
        ("trace.replay_mismatches", value "trace.replay_mismatches");
        ("trace.gap_filled", value "trace.gap_filled");
        ("trace.clipped_ms", value "trace.clipped_ms");
        ("trace.calls_per_pass", value "trace.calls_per_pass");
      ];
  }

(* Each traced layer span must nest in its query span; returned for the
   self-test. *)
let spans_nested (p : timed_pass) (spans : R.span list) =
  List.for_all
    (fun (s : R.span) ->
      let q_start, q_stop = p.spans.(s.R.call) in
      q_start <= s.R.start && s.R.start <= s.R.stop && s.R.stop <= q_stop)
    spans

(* The tree the figures came from. *)
let shell_line cmd =
  match Unix.open_process_in cmd with
  | ic ->
      let out = In_channel.input_all ic in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some (String.trim out)
      | _ -> None)
  | exception Unix.Unix_error _ -> None

let provenance () =
  let commit = shell_line "git rev-parse HEAD 2>/dev/null" in
  let dirty =
    match commit with
    | None -> Json.Null
    | Some _ -> (
        match shell_line "git status --porcelain 2>/dev/null" with
        | Some s -> Json.Bool (String.length s > 0)
        | None -> Json.Null)
  in
  [
    ("commit", match commit with Some c when c <> "" -> Json.String c | _ -> Json.Null);
    ("dirty", dirty);
    ("profile", Json.String Build_profile.value);
  ]

let metrics_json (r : result) =
  Json.Obj
    (List.map
       (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
       r.metrics)

let correct (r : result) = r.failed = 0 && r.errors = []

(* The full result record (tree, workload, sample sizes, diagnostics),
   then the one-line summary the benchmark contract reads. *)
let print (r : result) =
  List.iter (fun (n, u, v) -> Printf.printf "%-28s %16.6f %s\n" n v u) r.metrics;
  Printf.printf "%-28s %16.6f share\n" "failed_share"
    (share (float_of_int r.failed) (float_of_int r.attempted));
  List.iter (fun e -> Printf.printf "error: %s\n" e) r.errors;
  let record =
    Json.Obj
      ([
         ("workload", Json.String r.workload);
         ("seed", Json.int r.seed);
         ("traced", Json.Bool r.traced);
       ]
      @ provenance ()
      @ [
          ("passes", Json.int r.passes);
          ("samples", Json.int r.samples);
          ("attempted", Json.int r.attempted);
          ("failed", Json.int r.failed);
          ( "failed_share",
            Json.Float (share (float_of_int r.failed) (float_of_int r.attempted)) );
          ("errors", Json.List (List.map (fun e -> Json.String e) r.errors));
          ("notes", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) r.notes));
          ("metrics", metrics_json r);
        ])
  in
  print_endline (Json.to_string (Json.Obj [ ("record", record) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (correct r));
            ("attempted", Json.int r.attempted);
            ("failed", Json.int r.failed);
            ("metrics", metrics_json r);
          ]))
