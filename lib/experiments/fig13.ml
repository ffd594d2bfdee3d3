module Engine = Crowdmax_runtime.Engine
module Allocation = Crowdmax_core.Allocation

type cell = { label : string; x : int; mean_latency : float }

type t = {
  cells : cell list;
  x_label : string;
  title : string;
  example_allocations : (string * string) list;
}

let collection_sizes = [ 125; 250; 500; 1000; 2000 ]
let budget_sweep = [ 500; 1000; 2000; 4000; 8000; 16000; 32000 ]

let alloc_note combo ~elements ~budget =
  let alloc = combo.Common.allocate ~elements ~budget in
  Format.asprintf "%s at c0=%d b=%d: %a" combo.Common.label elements budget
    Allocation.pp alloc

let sweep ~jobs ~runs ~seed ~x_label ~title points =
  let model = Common.estimated_model in
  (* One plan cache across the whole sweep: Fig. 13(b)'s budget sweep at
     fixed c0 replans the same tables seven times, and the example
     allocations below replay states the measurement pass settled. *)
  let cache = Crowdmax_core.Tdp.Cache.create () in
  let combos = Common.standard_grid ~cache model in
  let cells =
    List.concat_map
      (fun (x, elements, budget) ->
        List.map
          (fun combo ->
            let agg =
              Common.measure ~jobs ~runs ~seed ~elements ~budget ~model combo
            in
            { label = combo.Common.label; x; mean_latency = agg.Engine.mean_latency })
          combos)
      points
  in
  let example_allocations =
    List.concat_map
      (fun (_, elements, budget) ->
        List.map
          (fun combo ->
            (combo.Common.label, alloc_note combo ~elements ~budget))
          combos)
      points
  in
  { cells; x_label; title; example_allocations }

let run_a ?(jobs = 1) ?(runs = 100) ?(seed = 29) ?(budget = 4000) () =
  sweep ~jobs ~runs ~seed ~x_label:"c0"
    ~title:(Printf.sprintf "Fig 13(a): latency (s) vs c0, b = %d" budget)
    (List.map (fun c0 -> (c0, c0, budget)) collection_sizes)

let run_b ?(jobs = 1) ?(runs = 100) ?(seed = 31) ?(elements = 500) () =
  sweep ~jobs ~runs ~seed ~x_label:"budget"
    ~title:(Printf.sprintf "Fig 13(b): latency (s) vs budget, c0 = %d" elements)
    (List.map (fun b -> (b, elements, b)) budget_sweep)

let series t =
  let labels =
    List.sort_uniq String.compare (List.map (fun c -> c.label) t.cells)
  in
  List.map
    (fun label ->
      {
        Common.name = label;
        points =
          List.filter_map
            (fun c ->
              if String.equal c.label label then
                Some (float_of_int c.x, c.mean_latency)
              else None)
            t.cells
          |> List.sort Common.compare_points;
      })
    labels

let print t =
  Crowdmax_util.Table.print
    (Common.series_table ~title:t.title ~x_label:t.x_label (series t))

let print_a t =
  print t;
  (* Sec. 6.4 also quotes the allocations behind the coincidences *)
  print_newline ();
  List.iter
    (fun (label, note) ->
      if String.equal label "tDP+Tournament" || String.equal label "uHF+CT25" then
        Printf.printf "  %s\n" note)
    t.example_allocations
