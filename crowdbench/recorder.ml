(* Tracing from outside the library.

   The drivers accept a [Selection.t] record, so the traced run hands
   them a wrapper that calls the real selector unchanged (same draws,
   same pairs) and records, per call, the wall span, the round's input
   and output, and a copy of the driver's rng right after the call. The
   rng copy is what makes the replay exact: under [Wait_all] every
   driver draws its RWL votes and platform events from that stream
   next, so re-issuing [Rwl.resolve] / [Platform.batch_latency] /
   [Platform.simulate_shared] on a copy repeats the live calls draw for
   draw. The replayed costs are then laid out, in each driver's
   documented per-round order, into the wall-clock gaps between
   consecutive selector calls of the live query. *)

module Selection = Crowdmax_selection.Selection
module Rng = Crowdmax_util.Rng
module Clock = Crowdmax_obs.Clock

type layer = Tdp | Select | Platform | Rwl | Answer_dag | Latency

let layer_count = 6

let layer_index = function
  | Tdp -> 0
  | Select -> 1
  | Platform -> 2
  | Rwl -> 3
  | Answer_dag -> 4
  | Latency -> 5

type event = {
  t_in : float;
  t_out : float;
  words : float;  (** minor words the selector allocated *)
  budget : int;
  candidates : int;
  total_rounds : int;
  pairs : (int * int) list;
  rng_after : Rng.t;
}

type t = { inner : Selection.t; mutable events : event list }

let create inner = { inner; events = [] }

let selection r =
  let select rng (input : Selection.round_input) =
    let t_in = Clock.now () in
    let w0 = Gc.minor_words () in
    let pairs = r.inner.Selection.select rng input in
    let words = Gc.minor_words () -. w0 in
    let t_out = Clock.now () in
    r.events <-
      {
        t_in;
        t_out;
        words;
        budget = input.Selection.budget;
        candidates = Array.length input.Selection.candidates;
        total_rounds = input.Selection.total_rounds;
        pairs;
        rng_after = Rng.copy rng;
      }
      :: r.events;
    pairs
  in
  { Selection.name = r.inner.Selection.name; select }

(* The events recorded since the last call, oldest first. *)
let take r =
  let events = Array.of_list (List.rev r.events) in
  r.events <- [];
  events

(* A replayed call's cost. [ms = infinity] marks a call the replay
   could not rebuild: it takes whatever its gap has left. *)
type item = { layer : layer; ms : float; words : float }

(* Counters and replayed costs of one traced pass. *)
type tally = {
  counts : (string, float) Hashtbl.t;
  mutable setup_items : item list;  (** costs outside any query *)
  mutable solve_ms : float list;  (** one entry per tDP solve *)
  mutable replay_mismatches : int;
      (** replayed rounds whose simulated latency differs from the live
          round's: the draw-for-draw replay no longer holds *)
  mutable gap_filled : int;
      (** calls the replay could not rebuild, attributed by schedule *)
}

let tally () =
  {
    counts = Hashtbl.create 32;
    setup_items = [];
    solve_ms = [];
    replay_mismatches = 0;
    gap_filled = 0;
  }

let count t name v =
  let old = Option.value (Hashtbl.find_opt t.counts name) ~default:0.0 in
  Hashtbl.replace t.counts name (old +. v)

let get t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0.0

let timed layer f =
  let t0 = Clock.now () in
  let w0 = Gc.minor_words () in
  let x = f () in
  let words = Gc.minor_words () -. w0 in
  let ms = (Clock.now () -. t0) *. 1e3 in
  (x, { layer; ms; words })

(* A tDP solve, timed and counted when a tally is given. *)
let solve ?tally ~cache problem =
  match tally with
  | None -> Crowdmax_core.Tdp.solve ~cache problem
  | Some t ->
      let sol, item =
        timed Tdp (fun () -> Crowdmax_core.Tdp.solve ~cache problem)
      in
      t.setup_items <- item :: t.setup_items;
      t.solve_ms <- item.ms :: t.solve_ms;
      count t "tdp.calls" 1.0;
      count t "tdp.states_settled"
        (float_of_int sol.Crowdmax_core.Tdp.states_visited);
      sol

type span = { layer : layer; call : int; start : float; stop : float }

(* Lay one driver call out as spans. [gaps.(k)] holds the replayed
   items that run, in the driver's order, between selector call [k-1]
   and selector call [k] (gap 0 opens at the call's start, the last
   gap closes at its end). Items are placed back to back from the
   gap's start; when they add up to more than the gap, all of them
   shrink in proportion, so every span nests inside the query span and
   layer self times never exceed the wall time. Fill items share what
   the others leave; what is left after that is the driver's own
   time. *)
let layout ~call ~q_start ~q_stop (events : event array) (gaps : item list array)
    =
  let n = Array.length events in
  if Array.length gaps <> n + 1 then invalid_arg "Recorder.layout: gap count";
  let spans = ref [] in
  for k = 0 to n do
    let g_start = if k = 0 then q_start else events.(k - 1).t_out in
    let g_stop = if k = n then q_stop else events.(k).t_in in
    let place layer start len =
      let stop = Float.max start (Float.min g_stop (start +. len)) in
      spans := { layer; call; start; stop } :: !spans;
      stop
    in
    let room = Float.max 0.0 (g_stop -. g_start) in
    let fixed, fill =
      List.partition (fun (i : item) -> Float.is_finite i.ms) gaps.(k)
    in
    let wanted =
      List.fold_left (fun acc (i : item) -> acc +. (i.ms /. 1e3)) 0.0 fixed
    in
    let scale = if wanted > room then room /. wanted else 1.0 in
    let cursor =
      List.fold_left
        (fun cursor (i : item) -> place i.layer cursor (i.ms /. 1e3 *. scale))
        g_start fixed
    in
    let nfill = List.length fill in
    if nfill > 0 then begin
      let share = (g_stop -. cursor) /. float_of_int nfill in
      ignore
        (List.fold_left (fun cursor (i : item) -> place i.layer cursor share) cursor fill)
    end;
    if k < n then
      spans :=
        { layer = Select; call; start = events.(k).t_in; stop = events.(k).t_out }
        :: !spans
  done;
  List.rev !spans
