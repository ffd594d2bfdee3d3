open Crowdmax_util

type config = { votes : int; error : Worker.error_model }

let default_config = { votes = 3; error = Worker.Uniform 0.1 }

type outcome = {
  answers : (int * int) list;
  unanswered : (int * int) list;
  raw_questions : int;
  vote_flips : int;
  cycle_edges_flipped : int;
  accuracy : float;
}

(* The working set of one resolution, reused round after round. Every
   array grows geometrically and is never freed, so a warmed scratch
   resolves a round without allocating anything per question.

   Edge buffers, one slot per answered question in question order:
   [winner]/[loser] hold the voted answer and, after [orient], the final
   one. Element-indexed: [local] maps an element id to its dense node
   label for this round, and is all -1 between calls. Node-indexed (the
   round's distinct elements, labelled in first-appearance order):
   everything else. *)
type scratch = {
  mutable winner : int array;
  mutable loser : int array;
  mutable adj : int array; (* CSR successor lists, one slot per edge *)
  mutable local : int array;
  mutable ids : int array; (* node -> element id *)
  mutable start : int array; (* CSR offsets, nodes + 1 *)
  mutable cursor : int array;
  mutable index : int array;
  mutable lowlink : int array;
  mutable comp : int array;
  mutable stack : int array;
  mutable dfs_v : int array;
  mutable dfs_i : int array;
  mutable score : int array;
  mutable answered : int;
  mutable vote_flips : int;
  mutable flipped : int;
  mutable unanswered : (int * int) list;
}

let scratch () =
  {
    winner = [||];
    loser = [||];
    adj = [||];
    local = [||];
    ids = [||];
    start = [||];
    cursor = [||];
    index = [||];
    lowlink = [||];
    comp = [||];
    stack = [||];
    dfs_v = [||];
    dfs_i = [||];
    score = [||];
    answered = 0;
    vote_flips = 0;
    flipped = 0;
    unanswered = [];
  }

let answered s = s.answered
let winner s i = s.winner.(i)
let loser s i = s.loser.(i)
let unanswered s = s.unanswered

let grown a need =
  if Array.length a >= need then a
  else Array.make (max need (2 * Array.length a)) 0

(* Room for [edges] answers over element ids in [0, elements). A round
   touches at most [min elements (2 * edges)] distinct elements. *)
let reserve s ~elements ~edges =
  if Array.length s.local < elements then
    s.local <- Array.make (max elements (2 * Array.length s.local)) (-1);
  s.winner <- grown s.winner edges;
  s.loser <- grown s.loser edges;
  s.adj <- grown s.adj edges;
  let nodes = min elements (2 * edges) in
  s.ids <- grown s.ids nodes;
  s.start <- grown s.start (nodes + 1);
  s.cursor <- grown s.cursor nodes;
  s.index <- grown s.index nodes;
  s.lowlink <- grown s.lowlink nodes;
  s.comp <- grown s.comp nodes;
  s.stack <- grown s.stack nodes;
  s.dfs_v <- grown s.dfs_v nodes;
  s.dfs_i <- grown s.dfs_i nodes;
  s.score <- grown s.score nodes

let clear s =
  s.answered <- 0;
  s.vote_flips <- 0;
  s.flipped <- 0;
  s.unanswered <- []

(* Cycle resolution: re-orient the voted edges inside each strongly
   connected component of the round's answer graph by the
   component-local win/loss score, so the result is acyclic (across
   components the votes already form a DAG). The output is a pure
   function of the SCC partition and the within-component scores, both
   canonical properties of the edge set, so neither the node labelling
   nor the order Tarjan visits roots in is observable.

   Work is O(edges): nodes are the round's distinct elements, labelled
   densely through [local], which is restored to all -1 on the way out.
   Tarjan runs iteratively over CSR successor lists with explicit DFS
   frames ([dfs_v] the node, [dfs_i] its next CSR cursor). A visited
   node is on Tarjan's stack exactly while it has no component yet, so
   [comp.(w) < 0] is the on-stack test. *)
let orient s =
  let e = s.answered in
  let winner = s.winner and loser = s.loser and local = s.local in
  let ids = s.ids and start = s.start and cursor = s.cursor and adj = s.adj in
  let index = s.index and lowlink = s.lowlink and comp = s.comp in
  let stack = s.stack and dfs_v = s.dfs_v and dfs_i = s.dfs_i in
  let score = s.score in
  let k = ref 0 in
  for i = 0 to e - 1 do
    let w = winner.(i) in
    if local.(w) < 0 then begin
      local.(w) <- !k;
      ids.(!k) <- w;
      incr k
    end;
    let l = loser.(i) in
    if local.(l) < 0 then begin
      local.(l) <- !k;
      ids.(!k) <- l;
      incr k
    end
  done;
  let k = !k in
  (* CSR: [start.(v) .. start.(v+1) - 1] indexes v's successors. *)
  Array.fill start 0 (k + 1) 0;
  for i = 0 to e - 1 do
    let v = local.(winner.(i)) + 1 in
    start.(v) <- start.(v) + 1
  done;
  for v = 1 to k do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  Array.blit start 0 cursor 0 k;
  for i = 0 to e - 1 do
    let v = local.(winner.(i)) in
    adj.(cursor.(v)) <- local.(loser.(i));
    cursor.(v) <- cursor.(v) + 1
  done;
  Array.fill index 0 k (-1);
  Array.fill comp 0 k (-1);
  let sp = ref 0 in
  let counter = ref 0 in
  let comp_count = ref 0 in
  for root = 0 to k - 1 do
    if index.(root) < 0 then begin
      let top = ref 0 in
      dfs_v.(0) <- root;
      dfs_i.(0) <- start.(root);
      index.(root) <- !counter;
      lowlink.(root) <- !counter;
      incr counter;
      stack.(!sp) <- root;
      incr sp;
      while !top >= 0 do
        let v = dfs_v.(!top) in
        let i = dfs_i.(!top) in
        if i < start.(v + 1) then begin
          dfs_i.(!top) <- i + 1;
          let w = adj.(i) in
          if index.(w) < 0 then begin
            index.(w) <- !counter;
            lowlink.(w) <- !counter;
            incr counter;
            stack.(!sp) <- w;
            incr sp;
            incr top;
            dfs_v.(!top) <- w;
            dfs_i.(!top) <- start.(w)
          end
          else if comp.(w) < 0 && index.(w) < lowlink.(v) then
            lowlink.(v) <- index.(w)
        end
        else begin
          if lowlink.(v) = index.(v) then begin
            let popping = ref true in
            while !popping do
              decr sp;
              let w = stack.(!sp) in
              comp.(w) <- !comp_count;
              if w = v then popping := false
            done;
            incr comp_count
          end;
          decr top;
          if !top >= 0 then begin
            let parent = dfs_v.(!top) in
            if lowlink.(v) < lowlink.(parent) then
              lowlink.(parent) <- lowlink.(v)
          end
        end
      done
    end
  done;
  Array.fill score 0 k 0;
  for i = 0 to e - 1 do
    let w = local.(winner.(i)) and l = local.(loser.(i)) in
    if comp.(w) = comp.(l) then begin
      score.(w) <- score.(w) + 1;
      score.(l) <- score.(l) - 1
    end
  done;
  (* Inside a component the final order is lexicographic (score, id). *)
  let flipped = ref 0 in
  for i = 0 to e - 1 do
    let w = winner.(i) and l = loser.(i) in
    let lw = local.(w) and ll = local.(l) in
    if comp.(lw) = comp.(ll) then begin
      let c = Int.compare score.(lw) score.(ll) in
      if not (c > 0 || (c = 0 && Int.compare w l > 0)) then begin
        winner.(i) <- l;
        loser.(i) <- w;
        incr flipped
      end
    end
  done;
  for v = 0 to k - 1 do
    local.(ids.(v)) <- -1
  done;
  s.flipped <- !flipped
[@@alloc_free]

let add_edge s w l =
  let i = s.answered in
  s.winner.(i) <- w;
  s.loser.(i) <- l;
  s.answered <- i + 1

(* Record one voted answer to question [(a, b)]. *)
let push s ~truth a b winner =
  if winner <> Ground_truth.better truth a b then
    s.vote_flips <- s.vote_flips + 1;
  add_edge s winner (if winner = a then b else a)

let answers s = List.init s.answered (fun i -> (s.winner.(i), s.loser.(i)))

let break_cycles s voted =
  let elements =
    List.fold_left
      (fun m (w, l) ->
        if w < 0 || l < 0 then invalid_arg "Rwl.break_cycles: negative id";
        if w = l then invalid_arg "Rwl.break_cycles: self-comparison";
        max m (max w l + 1))
      0 voted
  in
  clear s;
  reserve s ~elements ~edges:(List.length voted);
  List.iter (fun (w, l) -> add_edge s w l) voted;
  orient s;
  (answers s, s.flipped)

let check_questions name questions =
  List.iter
    (fun (a, b) -> if a = b then invalid_arg (name ^ ": self-comparison"))
    questions

(* Validate an optional per-question received-vote vector (deadline
   support): when absent, every question got its full [votes]. *)
let check_received name votes n_questions = function
  | None -> fun _ -> votes
  | Some received ->
      if Array.length received <> n_questions then
        invalid_arg (name ^ ": votes_received length mismatch");
      Array.iter
        (fun v ->
          if v < 0 || v > votes then
            invalid_arg (name ^ ": votes_received out of [0, votes]"))
        received;
      fun qi -> received.(qi)

(* An exact split: award the question by a fair draw rather than the
   historical (biased) award-to-[b]. Only consulted on actual ties, so
   odd full-vote configurations never touch the rng here. *)
let fair_tie rng a b = if Rng.bool rng then a else b

let resolve_into s ?votes_received rng cfg ~truth questions =
  let name = "Rwl.resolve" in
  if cfg.votes < 1 then invalid_arg (name ^ ": votes < 1");
  check_questions name questions;
  let n_questions = List.length questions in
  let received = check_received name cfg.votes n_questions votes_received in
  (* One raw vote, specialized by error model: the model is fixed for
     the whole call, so the [Uniform] clamp (and [Perfect]'s no-draw
     short-circuit — [Rng.bernoulli] at p <= 0 never draws) hoists out
     of the per-answer path. Draw-for-draw identical to
     [Worker.answer ... = a]. *)
  let vote_is_a =
    match cfg.error with
    | Worker.Perfect -> fun a b -> Ground_truth.better truth a b = a
    | Worker.Uniform p ->
        let p = Float.max 0.0 (Float.min 1.0 p) in
        fun a b ->
          let truthful = Ground_truth.better truth a b = a in
          if Rng.bernoulli rng p then not truthful else truthful
    | Worker.Distance_sensitive _ ->
        fun a b -> Worker.answer rng cfg.error truth a b = a
  in
  clear s;
  reserve s ~elements:(Ground_truth.size truth) ~edges:n_questions;
  (* Repetition + majority vote per question, straight into the edge
     buffers. *)
  List.iteri
    (fun qi ((a, b) as question) ->
      let v = received qi in
      if v = 0 then s.unanswered <- question :: s.unanswered
      else begin
        let wins_a = ref 0 in
        for _ = 1 to v do
          if vote_is_a a b then incr wins_a
        done;
        push s ~truth a b
          (if 2 * !wins_a > v then a
           else if 2 * !wins_a < v then b
           else fair_tie rng a b)
      end)
    questions;
  s.unanswered <- List.rev s.unanswered;
  orient s

(* Keep, per question, only the first [received qi] collected votes —
   under a deadline the earliest-assigned workers are the ones whose
   answers made it back. *)
let truncate_votes received votes =
  let kept = Hashtbl.create 64 in
  List.filter
    (fun v ->
      let qi = v.Worker_pool.question in
      let k = Option.value ~default:0 (Hashtbl.find_opt kept qi) in
      if k < received qi then begin
        Hashtbl.replace kept qi (k + 1);
        true
      end
      else false)
    votes

let resolve_pool_into s ?votes_received rng ~pool ~votes ~truth questions =
  let name = "Rwl.resolve_pool" in
  if votes < 1 then invalid_arg (name ^ ": votes < 1");
  check_questions name questions;
  let n_questions = List.length questions in
  let received = check_received name votes n_questions votes_received in
  clear s;
  match questions with
  | [] -> ()
  | _ ->
      let question_array = Array.of_list questions in
      let raw_votes =
        Worker_pool.collect_votes pool rng ~truth ~votes_per_question:votes
          question_array
      in
      let raw_votes =
        match votes_received with
        | None -> raw_votes
        | Some _ -> truncate_votes received raw_votes
      in
      if List.compare_length_with raw_votes 0 = 0 then
        s.unanswered <- questions
      else begin
        (* Zero-vote questions stay in the array (they contribute
           nothing to the EM) and are reported unanswered below. *)
        let est =
          Worker_pool.estimate_accuracies ~questions:question_array
            ~workers:(Worker_pool.size pool) raw_votes
        in
        reserve s ~elements:(Ground_truth.size truth) ~edges:n_questions;
        List.iteri
          (fun qi ((a, b) as question) ->
            if received qi = 0 then s.unanswered <- question :: s.unanswered
            else
              push s ~truth a b
                (* The estimator's exactly-zero scores fall back to a
                   deterministic award-to-[a]; re-break them fairly. *)
                (if est.Worker_pool.tied.(qi) then fair_tie rng a b
                 else est.Worker_pool.consensus.(qi)))
          questions;
        s.unanswered <- List.rev s.unanswered;
        orient s
      end

(* The list form: a fresh scratch, read back as an [outcome]. *)
let outcome_of s ~truth ~raw_questions =
  let answers = answers s in
  let correct =
    List.fold_left
      (fun acc (w, l) -> if Ground_truth.better truth w l = w then acc + 1 else acc)
      0 answers
  in
  {
    answers;
    unanswered = s.unanswered;
    raw_questions;
    vote_flips = s.vote_flips;
    cycle_edges_flipped = s.flipped;
    accuracy =
      (if s.answered = 0 then 1.0
       else float_of_int correct /. float_of_int s.answered);
  }

let resolve ?votes_received rng cfg ~truth questions =
  let s = scratch () in
  resolve_into s ?votes_received rng cfg ~truth questions;
  outcome_of s ~truth ~raw_questions:(cfg.votes * List.length questions)

let resolve_pool ?votes_received rng ~pool ~votes ~truth questions =
  let s = scratch () in
  resolve_pool_into s ?votes_received rng ~pool ~votes ~truth questions;
  outcome_of s ~truth ~raw_questions:(votes * List.length questions)

let is_conflict_free ~n answers =
  let dag = Crowdmax_graph.Answer_dag.create n in
  try
    List.iter
      (fun (winner, loser) ->
        Crowdmax_graph.Answer_dag.add_answer dag ~winner ~loser)
      answers;
    true
  with Crowdmax_graph.Answer_dag.Cycle _ -> false
