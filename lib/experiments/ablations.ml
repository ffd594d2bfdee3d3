module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Selection = Crowdmax_selection.Selection
module Engine = Crowdmax_runtime.Engine
module G = Crowdmax_crowd.Ground_truth
module Rwl = Crowdmax_crowd.Rwl
module W = Crowdmax_crowd.Worker

let section title =
  Printf.printf "\n================ %s ================\n%!" title

let model = Model.paper_mturk

(* An engine config running the tDP allocation of (c0, b) under
   [model], tournament selection unless told otherwise. *)
let tdp_config ?source ?(selection = Selection.tournament) c0 b =
  let sol = Tdp.solve (Problem.create ~elements:c0 ~budget:b ~latency:model) in
  Engine.config ?source ~allocation:sol.Tdp.allocation ~selection
    ~latency_model:model ()

(* Beyond the paper: per-round re-planning vs the static tDP schedule.
   With pure tournament rounds the two coincide (DP suffix optimality);
   the gain appears when cross-tournament extras over-eliminate. *)
let ablation_adaptive ~jobs ~runs ?(seed = 3) () =
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
        Engine.replicate ~jobs ~runs ~seed (tdp_config c0 b)
          ~elements:c0
      in
      let ad =
        Crowdmax_runtime.Adaptive.replicate ~jobs ~runs ~seed ~problem
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
let ablation_ct_split ~jobs ~runs ?(seed = 7) () =
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
        Engine.replicate ~jobs ~runs ~seed
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
let ablation_rwl ~jobs ~runs ?(seed = 11) () =
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
      let agg = Engine.replicate ~jobs ~runs ~seed cfg ~elements:c0 in
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
let extension_topk ~runs ?(seed = 5) () =
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
      let master = Crowdmax_util.Rng.create seed in
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
let extension_sort ?(seed = 11) () =
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
      let rng = Crowdmax_util.Rng.create seed in
      let truth = G.random rng n in
      let run_with m = Crowdmax_sort.Sort.run rng ~strategy ~latency:m truth in
      let base = run_with model in
      Crowdmax_util.Table.add_row table
        (Crowdmax_sort.Sort.strategy_name strategy
        :: string_of_int base.Crowdmax_sort.Sort.questions_posted
        :: string_of_int base.Crowdmax_sort.Sort.rounds_run
        :: List.map
             (fun (_, m) ->
               Printf.sprintf "%.0f s"
                 (run_with m).Crowdmax_sort.Sort.total_latency)
             models))
    strategies;
  Crowdmax_util.Table.print table

(* Extension - posting time on a diurnal platform: the same batch is
   slower when posted at the availability trough. *)
let extension_diurnal ~runs ?(seed = 13) () =
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
      let rng = Crowdmax_util.Rng.create seed in
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

let extension_robustness ~jobs ~runs ?seed () =
  section "Extension - error robustness sweep";
  Robustness.print (Robustness.run ~jobs ~runs:(max 10 (runs / 2)) ?seed ())

let print ?(jobs = 1) ?(runs = 30) ?seed () =
  ablation_adaptive ~jobs ~runs ?seed ();
  ablation_ct_split ~jobs ~runs ?seed ();
  ablation_rwl ~jobs ~runs ?seed ();
  extension_topk ~runs ?seed ();
  extension_sort ?seed ();
  extension_diurnal ~runs ?seed ();
  extension_frontier ();
  extension_robustness ~jobs ~runs ?seed ()
