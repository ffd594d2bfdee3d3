(* Smoke-size self-tests of the benchmark. Runs under `dune runtest`. *)

module H = Crowdbench.Harness
module W = Crowdbench.Workload
module R = Crowdbench.Recorder
module Json = Crowdmax_util.Json

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

(* BENCHMARK.json declares the catalogue the harness emits. *)
let declared key =
  let json = Json.of_string (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) in
  match Option.bind (Json.member key json) Json.to_list with
  | None -> []
  | Some entries ->
      List.filter_map
        (fun e ->
          match
            ( Option.bind (Json.member "name" e) Json.to_str,
              Option.bind (Json.member "unit" e) Json.to_str )
          with
          | Some n, Some u -> Some (n, u)
          | _ -> None)
        entries

let same_catalogue a b =
  let sort = List.sort (fun (x, _) (y, _) -> String.compare x y) in
  List.equal
    (fun (n1, u1) (n2, u2) -> String.equal n1 n2 && String.equal u1 u2)
    (sort a) (sort b)

let emitted (r : H.result) = List.map (fun (n, u, _) -> (n, u)) r.H.metrics

let seed = 5

let () =
  check "end_to_end catalogue matches BENCHMARK.json"
    (same_catalogue H.end_to_end (declared "end_to_end"));
  check "per_layer catalogue matches BENCHMARK.json"
    (same_catalogue H.per_layer (declared "per_layer"));
  List.iter
    (fun (w : W.t) ->
      let name what = Printf.sprintf "%s: %s" w.W.name what in
      (* Every named metric, with its unit, and a clean output check. *)
      let r = H.untraced ~smoke:true w ~seed ~seconds:0.0 in
      check (name "emits every end-to-end metric") (same_catalogue (emitted r) H.end_to_end);
      check (name "untraced run passes its output checks") (H.correct r);
      List.iter print_endline r.H.errors;
      check (name "end-to-end metrics are finite and non-zero")
        (List.for_all (fun (_, _, v) -> Float.is_finite v && v > 0.0) r.H.metrics);
      let t = H.traced ~smoke:true w ~seed ~seconds:0.0 in
      check (name "emits every per-layer metric") (same_catalogue (emitted t) H.per_layer);
      check (name "traced run passes its output checks") (H.correct t);
      check (name "replay repeats the live layer calls")
        (Float.equal (List.assoc "trace.replay_mismatches" t.H.notes) 0.0);
      (* Spans nest in their query spans. *)
      let ledger = { H.attempted = 0; failed = 0; errors = [] } in
      let inst = w.W.setup ~smoke:true seed in
      let tp, _, _, spans = H.traced_pass ledger inst in
      check (name "traced run records layer spans") (spans <> []);
      check (name "every layer span nests in its query span") (H.spans_nested tp spans);
      check (name "the recording selector changes nothing") (ledger.H.failed = 0);
      (* The output check rejects tampered outcomes. *)
      let pass = inst.W.new_pass W.plain in
      for i = 1 to pass.W.calls - 1 do
        pass.W.call i
      done;
      let outcomes, verdict = pass.W.finish () in
      check (name "a skipped driver call fails the replicate comparison")
        (Result.is_error verdict);
      let o = outcomes.(1) in
      List.iter
        (fun (what, tampered) ->
          check (name ("invariant check rejects " ^ what))
            (Option.is_some (W.violation tampered)))
        [
          ("an out-of-range max", { o with W.chosen = o.W.elements });
          ("an overspent budget", { o with W.questions = o.W.budget + 1 });
          ("a NaN report", { o with W.finite = false });
          ( "a wrong oracle singleton",
            { o with W.oracle = true; singleton = true; correct = false } );
        ];
      check (name "untampered outcome passes") (Option.is_none (W.violation o)))
    W.all;
  if !failures > 0 then begin
    Printf.printf "%d self-test failure(s)\n" !failures;
    exit 1
  end
  else print_endline "crowdbench self-tests: ok"
