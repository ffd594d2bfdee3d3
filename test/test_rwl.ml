module Rwl = Crowdmax_crowd.Rwl
module W = Crowdmax_crowd.Worker
module G = Crowdmax_crowd.Ground_truth
module Rng = Crowdmax_util.Rng

let tc = Alcotest.test_case
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let all_pairs n =
  List.concat
    (List.init n (fun i -> List.init (n - 1 - i) (fun k -> (i, i + 1 + k))))

let test_perfect_workers_exact () =
  let rng = Rng.create 3 in
  let truth = G.random rng 12 in
  let qs = all_pairs 12 in
  let o = Rwl.resolve rng { Rwl.votes = 1; error = W.Perfect } ~truth qs in
  Alcotest.check (Alcotest.float 1e-9) "accuracy 1" 1.0 o.Rwl.accuracy;
  check_int "no flips" 0 o.Rwl.vote_flips;
  check_int "no cycle repairs" 0 o.Rwl.cycle_edges_flipped;
  check_int "raw = asked" (List.length qs) o.Rwl.raw_questions

let test_output_one_answer_per_question () =
  let rng = Rng.create 5 in
  let truth = G.random rng 8 in
  let qs = all_pairs 8 in
  let o = Rwl.resolve rng { Rwl.votes = 3; error = W.Uniform 0.3 } ~truth qs in
  check_int "same count" (List.length qs) (List.length o.Rwl.answers);
  (* each output answer orients exactly its input question *)
  let normalize (a, b) = if a < b then (a, b) else (b, a) in
  let asked = List.sort compare (List.map normalize qs) in
  let answered = List.sort compare (List.map normalize o.Rwl.answers) in
  Alcotest.check Alcotest.(list (pair int int)) "same pairs" asked answered

let test_conflict_free_under_heavy_errors () =
  (* the central contract: output is acyclic no matter how bad the
     raw answers are *)
  let rng = Rng.create 7 in
  for trial = 1 to 30 do
    let n = 4 + Rng.int rng 10 in
    let truth = G.random rng n in
    let o =
      Rwl.resolve rng
        { Rwl.votes = 1; error = W.Uniform 0.5 }
        ~truth (all_pairs n)
    in
    check_bool
      (Printf.sprintf "trial %d acyclic" trial)
      true
      (Rwl.is_conflict_free ~n o.Rwl.answers)
  done

let test_raw_question_accounting () =
  let rng = Rng.create 9 in
  let truth = G.random rng 6 in
  let o = Rwl.resolve rng { Rwl.votes = 5; error = W.Perfect } ~truth (all_pairs 6) in
  check_int "votes x questions" (5 * 15) o.Rwl.raw_questions

let test_majority_vote_improves_accuracy () =
  let rng = Rng.create 11 in
  let truth = G.random rng 10 in
  let qs = all_pairs 10 in
  let acc votes =
    let total = ref 0.0 in
    for _ = 1 to 30 do
      let o = Rwl.resolve rng { Rwl.votes; error = W.Uniform 0.25 } ~truth qs in
      total := !total +. o.Rwl.accuracy
    done;
    !total /. 30.0
  in
  check_bool "5 votes beat 1" true (acc 5 > acc 1)

let test_empty_input () =
  let rng = Rng.create 13 in
  let truth = G.random rng 4 in
  let o = Rwl.resolve rng Rwl.default_config ~truth [] in
  check_int "no answers" 0 (List.length o.Rwl.answers);
  Alcotest.check (Alcotest.float 1e-9) "vacuous accuracy" 1.0 o.Rwl.accuracy

let test_votes_validation () =
  let rng = Rng.create 15 in
  let truth = G.random rng 4 in
  Alcotest.check_raises "votes < 1" (Invalid_argument "Rwl.resolve: votes < 1")
    (fun () ->
      ignore (Rwl.resolve rng { Rwl.votes = 0; error = W.Perfect } ~truth []))

let test_self_comparison_rejected () =
  let rng = Rng.create 17 in
  let truth = G.random rng 4 in
  Alcotest.check_raises "self" (Invalid_argument "Rwl.resolve: self-comparison")
    (fun () ->
      ignore (Rwl.resolve rng Rwl.default_config ~truth [ (2, 2) ]))

let test_is_conflict_free () =
  check_bool "chain ok" true (Rwl.is_conflict_free ~n:3 [ (0, 1); (1, 2) ]);
  check_bool "triangle cycle" false
    (Rwl.is_conflict_free ~n:3 [ (0, 1); (1, 2); (2, 0) ])

let test_cycle_resolution_flips_some_edge () =
  (* force a cyclic vote pattern often enough that resolution must act:
     50% error on a triangle, many trials *)
  let rng = Rng.create 19 in
  let truth = G.random rng 3 in
  let saw_flip = ref false in
  for _ = 1 to 200 do
    let o =
      Rwl.resolve rng
        { Rwl.votes = 1; error = W.Uniform 0.5 }
        ~truth
        [ (0, 1); (1, 2); (0, 2) ]
    in
    if o.Rwl.cycle_edges_flipped > 0 then saw_flip := true;
    check_bool "always acyclic" true (Rwl.is_conflict_free ~n:3 o.Rwl.answers)
  done;
  check_bool "resolution exercised" true !saw_flip

(* The tie-bias regression. With 2 votes and 50% worker error, exactly
   half of all questions split 1-1, and a split must fall to either
   element with equal probability: the historical bug awarded every
   tie to the second element, making the first win only ~25% of the
   time instead of ~50%. Seed-averaged so the check is about the
   estimator, not one lucky stream. *)
let test_even_vote_tie_fairness () =
  let trials = 2000 in
  let first_wins = ref 0 in
  for seed = 1 to trials do
    let rng = Rng.create seed in
    let truth = G.of_ranks [| 1; 0 |] in
    let o =
      Rwl.resolve rng { Rwl.votes = 2; error = W.Uniform 0.5 } ~truth [ (0, 1) ]
    in
    match o.Rwl.answers with
    | [ (w, _) ] -> if w = 0 then incr first_wins
    | _ -> Alcotest.fail "expected one answer"
  done;
  let frac = float_of_int !first_wins /. float_of_int trials in
  check_bool
    (Printf.sprintf "first element wins %.3f of ties (want ~0.5)" frac)
    true
    (frac > 0.45 && frac < 0.55)

let test_odd_votes_never_tie () =
  (* an odd vote count cannot split evenly, so resolve must not consume
     any tie-break draws: two rngs from the same seed, one used for an
     odd-vote resolve, must stay in lockstep *)
  let rng1 = Rng.create 31 and rng2 = Rng.create 31 in
  let truth = G.random rng1 8 in
  let _ = G.random rng2 8 in
  let qs = all_pairs 8 in
  let o1 = Rwl.resolve rng1 { Rwl.votes = 3; error = W.Uniform 0.3 } ~truth qs in
  let o2 = Rwl.resolve rng2 { Rwl.votes = 3; error = W.Uniform 0.3 } ~truth qs in
  Alcotest.check
    Alcotest.(list (pair int int))
    "identical streams" o1.Rwl.answers o2.Rwl.answers;
  check_int "same draw position" (Rng.int rng1 1000000) (Rng.int rng2 1000000)

let test_partial_votes_zero_is_unanswered () =
  let rng = Rng.create 33 in
  let truth = G.random rng 6 in
  let qs = [ (0, 1); (2, 3); (4, 5) ] in
  let o =
    Rwl.resolve ~votes_received:[| 3; 0; 2 |] rng
      { Rwl.votes = 3; error = W.Perfect }
      ~truth qs
  in
  check_int "two answered" 2 (List.length o.Rwl.answers);
  Alcotest.check
    Alcotest.(list (pair int int))
    "middle question unanswered" [ (2, 3) ] o.Rwl.unanswered;
  (* every repetition was posted, whether or not it came back *)
  check_int "raw counts posted repetitions" 9 o.Rwl.raw_questions;
  Alcotest.check (Alcotest.float 1e-9) "accuracy over answered only" 1.0
    o.Rwl.accuracy

let test_all_votes_received_matches_plain () =
  let run f =
    let rng = Rng.create 35 in
    let truth = G.random rng 7 in
    f rng truth
  in
  let qs = all_pairs 7 in
  let cfg = { Rwl.votes = 3; error = W.Uniform 0.2 } in
  let plain = run (fun rng truth -> Rwl.resolve rng cfg ~truth qs) in
  let full =
    run (fun rng truth ->
        Rwl.resolve
          ~votes_received:(Array.make (List.length qs) 3)
          rng cfg ~truth qs)
  in
  Alcotest.check
    Alcotest.(list (pair int int))
    "full votes_received = no votes_received" plain.Rwl.answers full.Rwl.answers

let test_votes_received_validation () =
  let rng = Rng.create 37 in
  let truth = G.random rng 4 in
  let cfg = { Rwl.votes = 3; error = W.Perfect } in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Rwl.resolve: votes_received length mismatch") (fun () ->
      ignore (Rwl.resolve ~votes_received:[| 3 |] rng cfg ~truth [ (0, 1); (2, 3) ]));
  Alcotest.check_raises "negative entry"
    (Invalid_argument "Rwl.resolve: votes_received out of [0, votes]")
    (fun () ->
      ignore (Rwl.resolve ~votes_received:[| -1 |] rng cfg ~truth [ (0, 1) ]));
  Alcotest.check_raises "entry above votes"
    (Invalid_argument "Rwl.resolve: votes_received out of [0, votes]")
    (fun () ->
      ignore (Rwl.resolve ~votes_received:[| 4 |] rng cfg ~truth [ (0, 1) ]))

module WP = Crowdmax_crowd.Worker_pool

let mk_pool ?(workers = 40) ?(good_fraction = 0.5) ?(good = 0.95) ?(bad = 0.55)
    rng =
  WP.create rng ~workers ~good_fraction ~good_accuracy:good ~bad_accuracy:bad

let test_pool_conflict_free () =
  let rng = Rng.create 21 in
  for _ = 1 to 15 do
    let n = 4 + Rng.int rng 8 in
    let truth = G.random rng n in
    let pool = mk_pool ~good_fraction:0.3 ~bad:0.5 rng in
    let o = Rwl.resolve_pool rng ~pool ~votes:3 ~truth (all_pairs n) in
    check_bool "acyclic" true (Rwl.is_conflict_free ~n o.Rwl.answers);
    check_int "one per question" (List.length (all_pairs n))
      (List.length o.Rwl.answers)
  done

let test_pool_weighting_beats_majority () =
  (* a pool that's mostly spammers: weighted consensus should recover
     at least as many true answers as anonymous majority voting *)
  let rng = Rng.create 23 in
  let weighted_acc = ref 0.0 and majority_acc = ref 0.0 in
  for _ = 1 to 10 do
    let n = 10 in
    let truth = G.random rng n in
    let pool = mk_pool ~good_fraction:0.35 ~good:0.97 ~bad:0.5 rng in
    let qs = all_pairs n in
    let ow = Rwl.resolve_pool rng ~pool ~votes:9 ~truth qs in
    let om =
      Rwl.resolve rng { Rwl.votes = 9; error = W.Uniform 0.33 } ~truth qs
    in
    weighted_acc := !weighted_acc +. ow.Rwl.accuracy;
    majority_acc := !majority_acc +. om.Rwl.accuracy
  done;
  check_bool "weighting helps against spam" true
    (!weighted_acc >= !majority_acc -. 0.2)

let test_pool_empty_questions () =
  let rng = Rng.create 25 in
  let truth = G.random rng 4 in
  let pool = mk_pool rng in
  let o = Rwl.resolve_pool rng ~pool ~votes:3 ~truth [] in
  check_int "no answers" 0 (List.length o.Rwl.answers);
  Alcotest.check (Alcotest.float 1e-9) "vacuous" 1.0 o.Rwl.accuracy

let test_pool_validation () =
  let rng = Rng.create 27 in
  let truth = G.random rng 4 in
  let pool = mk_pool rng in
  Alcotest.check_raises "votes" (Invalid_argument "Rwl.resolve_pool: votes < 1")
    (fun () -> ignore (Rwl.resolve_pool rng ~pool ~votes:0 ~truth []));
  Alcotest.check_raises "self" (Invalid_argument "Rwl.resolve_pool: self-comparison")
    (fun () -> ignore (Rwl.resolve_pool rng ~pool ~votes:3 ~truth [ (1, 1) ]))

let test_pool_raw_accounting () =
  let rng = Rng.create 29 in
  let truth = G.random rng 5 in
  let pool = mk_pool rng in
  let o = Rwl.resolve_pool rng ~pool ~votes:5 ~truth (all_pairs 5) in
  check_int "votes x questions" (5 * 10) o.Rwl.raw_questions

let test_pool_partial_votes () =
  let rng = Rng.create 39 in
  let truth = G.random rng 6 in
  let pool = mk_pool ~good_fraction:1.0 ~good:0.99 rng in
  let qs = [ (0, 1); (2, 3); (4, 5) ] in
  let o =
    Rwl.resolve_pool ~votes_received:[| 3; 0; 1 |] rng ~pool ~votes:3 ~truth qs
  in
  check_int "two answered" 2 (List.length o.Rwl.answers);
  Alcotest.check
    Alcotest.(list (pair int int))
    "zero-vote question unanswered" [ (2, 3) ] o.Rwl.unanswered;
  check_int "raw counts posted repetitions" 9 o.Rwl.raw_questions

let test_pool_all_zero_votes () =
  let rng = Rng.create 41 in
  let truth = G.random rng 4 in
  let pool = mk_pool rng in
  let qs = [ (0, 1); (2, 3) ] in
  let o = Rwl.resolve_pool ~votes_received:[| 0; 0 |] rng ~pool ~votes:3 ~truth qs in
  check_int "nothing answered" 0 (List.length o.Rwl.answers);
  Alcotest.check
    Alcotest.(list (pair int int))
    "everything unanswered" qs o.Rwl.unanswered;
  Alcotest.check (Alcotest.float 1e-9) "vacuous accuracy" 1.0 o.Rwl.accuracy

(* --- the scratch core against the hashtable reference --------------------- *)

module Q = QCheck

(* The hashtable-SCC cycle-breaker the scratch core replaced, kept as the
   reference: Tarjan over hashtables keyed by element id, so any id
   space works, then the same (score, id) re-orientation inside each
   component. *)
let scc_of ~nodes ~succ =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let comp = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let comp_count = ref 0 in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          let lv = Hashtbl.find lowlink v and lw = Hashtbl.find lowlink w in
          if lw < lv then Hashtbl.replace lowlink v lw
        end
        else if Hashtbl.mem on_stack w then begin
          let lv = Hashtbl.find lowlink v and iw = Hashtbl.find index w in
          if iw < lv then Hashtbl.replace lowlink v iw
        end)
      (succ v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec popall () =
        match !stack with
        | [] -> ()
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            Hashtbl.replace comp w !comp_count;
            if w <> v then popall ()
      in
      popall ();
      incr comp_count
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  comp

let reference_break_cycles voted =
  let succ_tbl = Hashtbl.create 64 in
  List.iter
    (fun (w, l) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt succ_tbl w) in
      Hashtbl.replace succ_tbl w (l :: cur))
    voted;
  let nodes =
    List.sort_uniq Int.compare (List.concat_map (fun (w, l) -> [ w; l ]) voted)
  in
  let succ v = Option.value ~default:[] (Hashtbl.find_opt succ_tbl v) in
  let comp = scc_of ~nodes ~succ in
  let score = Hashtbl.create 64 in
  let get v = Option.value ~default:0 (Hashtbl.find_opt score v) in
  List.iter
    (fun (w, l) ->
      if Hashtbl.find comp w = Hashtbl.find comp l then begin
        Hashtbl.replace score w (get w + 1);
        Hashtbl.replace score l (get l - 1)
      end)
    voted;
  let flipped = ref 0 in
  let final =
    List.map
      (fun (w, l) ->
        if Hashtbl.find comp w <> Hashtbl.find comp l then (w, l)
        else
          let c = Int.compare (get w) (get l) in
          if c > 0 || (c = 0 && Int.compare w l > 0) then (w, l)
          else begin
            incr flipped;
            (l, w)
          end)
      voted
  in
  (final, !flipped)

(* Random voted edge sets over [n] elements, labelled densely (0..n-1)
   or by sparse high ids (strictly increasing, gaps up to [stride],
   reaching ~130k with at most 150 edges, so ids far outnumber edges).
   Parallel and antiparallel duplicates included. *)
let voted_gen =
  let open Q.Gen in
  int_range 2 40 >>= fun n ->
  bool >>= fun sparse ->
  (if sparse then
     int_range 0 50_000 >>= fun base ->
     int_range 1 2_000 >>= fun stride ->
     array_repeat n (int_bound (stride - 1)) >|= fun jitter ->
     Array.mapi (fun i j -> base + (i * stride) + j) jitter
   else return (Array.init n Fun.id))
  >>= fun label ->
  list_size (int_range 0 150)
    ( int_bound (n - 1) >>= fun i ->
      int_bound (n - 2) >|= fun j ->
      (label.(i), label.(if j >= i then j + 1 else j)) )

let voted_arb =
  Q.make voted_gen
    ~print:Q.Print.(list (pair int int))

(* One scratch for every case: rounds of different sizes and id ranges
   follow each other, so stale state from an earlier call would show. *)
let shared = Rwl.scratch ()

let prop_scratch_matches_reference =
  Q.Test.make ~count:500
    ~name:"rwl: scratch cycle-breaker = hashtable reference (answers, order, flips)"
    voted_arb (fun voted ->
      let got = Rwl.break_cycles shared voted in
      let want = reference_break_cycles voted in
      fst got = fst want && snd got = snd want)

(* The drivers' scratch path against the list form, from the same rng
   state: same answers in the same order, same unanswered questions,
   and the two rngs left in lockstep. *)
let resolve_case_gen =
  let open Q.Gen in
  int_range 2 30 >>= fun n ->
  int_range 1 4 >>= fun votes ->
  int_bound 1_000_000 >>= fun seed ->
  bool >>= fun partial ->
  list_size (int_range 0 80)
    ( int_bound (n - 1) >>= fun i ->
      int_bound (n - 2) >|= fun j -> (i, if j >= i then j + 1 else j) )
  >>= fun questions ->
  array_repeat (List.length questions) (int_bound votes) >|= fun received ->
  (n, votes, seed, (if partial then Some received else None), questions)

let prop_resolve_into_matches_resolve =
  Q.Test.make ~count:300
    ~name:"rwl: resolve_into on a reused scratch = resolve"
    (Q.make resolve_case_gen) (fun (n, votes, seed, votes_received, questions) ->
      let cfg = { Rwl.votes; error = W.Uniform 0.35 } in
      let truth = G.random (Rng.create seed) n in
      let rng1 = Rng.create (seed + 1) and rng2 = Rng.create (seed + 1) in
      let o = Rwl.resolve ?votes_received rng1 cfg ~truth questions in
      Rwl.resolve_into shared ?votes_received rng2 cfg ~truth questions;
      let answers =
        List.init (Rwl.answered shared) (fun i ->
            (Rwl.winner shared i, Rwl.loser shared i))
      in
      answers = o.Rwl.answers
      && Rwl.unanswered shared = o.Rwl.unanswered
      && Rng.int rng1 1_000_000 = Rng.int rng2 1_000_000)

let test_scratch_reuse_across_sizes () =
  (* Large sparse round, then a tiny dense one, then large again, on one
     scratch: each must match the reference as if run fresh. *)
  let s = Rwl.scratch () in
  let rng = Rng.create 43 in
  let round ~n ~edges ~scale =
    List.init edges (fun _ ->
        let i = Rng.int rng n in
        let j = (i + 1 + Rng.int rng (n - 1)) mod n in
        (i * scale, j * scale))
  in
  List.iter
    (fun voted ->
      let got = Rwl.break_cycles s voted in
      Alcotest.(check (pair (list (pair int int)) int))
        "matches reference" (reference_break_cycles voted) got)
    [
      round ~n:60 ~edges:200 ~scale:997;
      [ (0, 1); (1, 2); (2, 0) ];
      [];
      round ~n:8 ~edges:30 ~scale:1;
      round ~n:60 ~edges:200 ~scale:997;
    ]

let test_break_cycles_validation () =
  let s = Rwl.scratch () in
  Alcotest.check_raises "negative id"
    (Invalid_argument "Rwl.break_cycles: negative id") (fun () ->
      ignore (Rwl.break_cycles s [ (-1, 2) ]));
  Alcotest.check_raises "self-loop"
    (Invalid_argument "Rwl.break_cycles: self-comparison") (fun () ->
      ignore (Rwl.break_cycles s [ (3, 3) ]))

let suite =
  [
    ( "rwl",
      [
        tc "scratch reuse across sizes" `Quick test_scratch_reuse_across_sizes;
        tc "break_cycles validation" `Quick test_break_cycles_validation;
        tc "even-vote tie fairness" `Slow test_even_vote_tie_fairness;
        tc "odd votes never consult tie-break rng" `Quick test_odd_votes_never_tie;
        tc "partial votes: zero received is unanswered" `Quick
          test_partial_votes_zero_is_unanswered;
        tc "full votes_received matches plain resolve" `Quick
          test_all_votes_received_matches_plain;
        tc "votes_received validation" `Quick test_votes_received_validation;
        tc "pool: partial votes" `Quick test_pool_partial_votes;
        tc "pool: all votes cut off" `Quick test_pool_all_zero_votes;
        tc "pool: conflict-free" `Quick test_pool_conflict_free;
        tc "pool: weighting vs majority" `Slow test_pool_weighting_beats_majority;
        tc "pool: empty questions" `Quick test_pool_empty_questions;
        tc "pool: validation" `Quick test_pool_validation;
        tc "pool: raw accounting" `Quick test_pool_raw_accounting;
        tc "perfect workers exact" `Quick test_perfect_workers_exact;
        tc "one answer per question" `Quick test_output_one_answer_per_question;
        tc "conflict-free under heavy errors" `Quick test_conflict_free_under_heavy_errors;
        tc "raw question accounting" `Quick test_raw_question_accounting;
        tc "majority vote improves accuracy" `Slow test_majority_vote_improves_accuracy;
        tc "empty input" `Quick test_empty_input;
        tc "votes validation" `Quick test_votes_validation;
        tc "self comparison rejected" `Quick test_self_comparison_rejected;
        tc "is_conflict_free" `Quick test_is_conflict_free;
        tc "cycle resolution exercised" `Quick test_cycle_resolution_flips_some_edge;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_scratch_matches_reference; prop_resolve_into_matches_resolve ]
    );
  ]
