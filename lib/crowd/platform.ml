open Crowdmax_util
module Metrics = Crowdmax_obs.Metrics

type config = {
  post_overhead : float;
  base_rate : float;
  attract_per_question : float;
  visibility_exponent : float;
  burst_seconds : float;
  tail_rate : float;
  patience_mean : float;
  service : Worker.service_model;
  diurnal_amplitude : float;
  diurnal_period : float;
  diurnal_phase : float;
}

let default_config =
  {
    post_overhead = 150.0;
    base_rate = 0.05;
    attract_per_question = 0.0007;
    visibility_exponent = 1.1;
    burst_seconds = 300.0;
    tail_rate = 0.02;
    patience_mean = 8.0;
    service = Worker.default_service;
    diurnal_amplitude = 0.0;
    diurnal_period = 86_400.0;
    diurnal_phase = 0.0;
  }

type t = { cfg : config }

(* Config validation happens at construction, not inside the event
   loop: a [diurnal_amplitude >= 1.0] drives the modulation factor
   [1 + a*sin(...)] negative for part of every period, which turns the
   thinning acceptance probability in [arrival_after] negative —
   Bernoulli draws then silently never accept in the trough and the
   arrival stream freezes without any error. Rejecting the config is
   the loud failure; anyone wanting "market closes overnight" semantics
   needs an explicit zero-clamped rate, not a sign flip. *)
let create ?(config = default_config) () =
  let a = config.diurnal_amplitude in
  if Float.is_nan a || a < 0.0 || a >= 1.0 then
    invalid_arg "Platform.create: diurnal_amplitude must be in [0, 1)";
  if a > 0.0 then begin
    if
      Float.is_nan config.diurnal_period
      || (not (Float.is_finite config.diurnal_period))
      || config.diurnal_period <= 0.0
    then invalid_arg "Platform.create: diurnal_period must be finite and > 0";
    if Float.is_nan config.diurnal_phase then
      invalid_arg "Platform.create: diurnal_phase must not be NaN"
  end;
  { cfg = config }

let config t = t.cfg

(* One simulated worker sitting: how many questions they will answer
   before switching tasks (geometric, mean patience_mean, at least 1).
   [p] is the precomputed success probability 1 / max 1 patience_mean. *)
let draw_patience rng p =
  (* A local [rec loop] would capture [rng]/[p] in a fresh closure on
     every sitting; the while form draws the same geometric sequence
     without one. *)
  let k = ref 1 in
  while not (Rng.bernoulli rng p) do
    incr k
  done;
  !k
[@@alloc_free]

(* Time-of-day modulation of worker availability. *)
let diurnal_factor cfg t =
  if cfg.diurnal_amplitude <= 0.0 then 1.0
  else
    1.0
    +. cfg.diurnal_amplitude
       *. sin (2.0 *. Float.pi *. ((t +. cfg.diurnal_phase) /. cfg.diurnal_period))
[@@alloc_free]

let burst_rate_of cfg q =
  cfg.base_rate
  +. (cfg.attract_per_question *. (float_of_int q ** cfg.visibility_exponent))
[@@alloc_free]

(* Arrival process: Poisson with rate [burst_rate q] while the batch is
   visible, then [tail_rate] forever, both scaled by the diurnal factor.
   Returns the next arrival strictly after [t]. The steady case keeps
   the direct exponential draws; the diurnal case uses thinning against
   the peak-rate envelope. Both paths clamp the start time to
   [post_overhead]: the arrival rate is zero before the batch is
   visible, so for the steady case the clamp is where the first draw
   begins, and for the thinning case starting any earlier would only
   burn rejected draws across an interval that cannot produce an
   arrival. *)
let arrival_after rng cfg q t =
  let burst_rate = burst_rate_of cfg q in
  let burst_end = cfg.post_overhead +. cfg.burst_seconds in
  let t = if t >= cfg.post_overhead then t else cfg.post_overhead in
  if cfg.diurnal_amplitude <= 0.0 then begin
    if t < burst_end then begin
      let dt = Rng.exponential rng (1.0 /. burst_rate) in
      if t +. dt <= burst_end then t +. dt
      else begin
        (* Memorylessness: restart the draw at the tail rate from the
           moment the burst ends. *)
        let dt = Rng.exponential rng (1.0 /. cfg.tail_rate) in
        burst_end +. dt
      end
    end
    else t +. Rng.exponential rng (1.0 /. cfg.tail_rate)
  end
  else begin
    let envelope =
      (if burst_rate >= cfg.tail_rate then burst_rate else cfg.tail_rate)
      *. (1.0 +. cfg.diurnal_amplitude)
    in
    (* Thinning against the peak-rate envelope, de-closured: the old
       [base]/[rec thin] pair allocated two closures per call. The
       candidate time lives in a local non-escaping ref (unboxed) and
       each iteration makes the same exponential-then-bernoulli draw
       pair in the same order. *)
    let tt = ref t in
    let accepted = ref false in
    while not !accepted do
      tt := !tt +. Rng.exponential rng (1.0 /. envelope);
      let u = !tt in
      let base =
        if u < cfg.post_overhead then 0.0
        else if u < burst_end then burst_rate
        else cfg.tail_rate
      in
      let rate = base *. diurnal_factor cfg u in
      if Rng.bernoulli rng (rate /. envelope) then accepted := true
    done;
    !tt
  end
[@@alloc_free]

let next_arrival t rng ~q ~after = arrival_after rng t.cfg q after

type report = {
  latency : float;
  last_completion : float;
  completed : int;
  in_flight : int;
  unassigned : int;
  deadline_hit : bool;
}

type pick_policy = Fifo | Proportional

(* --- the marketplace ------------------------------------------------------

   One event loop serves [nq] concurrent batches ("queries") posted at
   time 0 from a single arrival stream; platform.mli states its
   semantics ([simulate_shared]) and [simulate] is its one-query view.
   Two draw contracts shape the code (both tested):
   - One query draws arrival, patience and service times in the order
     the golden hex pins, and nothing else: the pick step consumes no
     rng when only one query is live.
   - Under [Fifo] with no deadlines, k queries are draw-for-draw one
     merged batch of [sum qs]: FIFO assigns the [i]th question taken to
     the query owning merged index [i], and visibility (hence the
     arrival rate) is the constant total. *)

(* Scalar float state of the event loop. An all-float record is flat, so
   these fields update without boxing — unlike a [float ref], which
   allocates on every store. *)
type clock = {
  mutable arrival : float;  (* the one pending worker arrival *)
  mutable burst_mean : float;  (* burst inter-arrival mean at [visible] *)
  mutable next_deadline : float;  (* earliest deadline of a live query *)
}

(* Reusable simulation buffers. [t] itself stays immutable — one
   platform value is shared by every run of an engine config, across
   domains under parallel replication — so mutable storage lives in a
   per-caller scratch handle instead. The per-query arrays grow
   geometrically and are never shrunk. *)
type scratch = {
  cal : Event_calendar.t;  (* in-flight completions: ticket, patience left *)
  clock : clock;
  mutable size : int array;  (* query -> posted questions *)
  mutable deadline : float array;  (* query -> withdrawal cutoff *)
  mutable cursor : int array;  (* query -> questions assigned *)
  mutable answered : int array;  (* query -> answers counted *)
  mutable last : float array;  (* query -> last counted completion *)
  mutable withdrawn : bool array;  (* query -> cut off by its deadline *)
  mutable live : int;  (* queries neither answered in full nor withdrawn *)
  mutable visible : int;  (* posted questions of queries not withdrawn *)
  mutable unassigned : int;  (* their questions no worker took yet *)
}

let scratch () =
  {
    cal = Event_calendar.create ();
    clock = { arrival = 0.0; burst_mean = 0.0; next_deadline = 0.0 };
    size = [| 0 |];
    deadline = [| 0.0 |];
    cursor = [| 0 |];
    answered = [| 0 |];
    last = [| 0.0 |];
    withdrawn = [| false |];
    live = 0;
    visible = 0;
    unassigned = 0;
  }

let reserve_queries s nq =
  if Array.length s.size < nq then begin
    let n = 2 * nq in
    s.size <- Array.make n 0;
    s.deadline <- Array.make n 0.0;
    s.cursor <- Array.make n 0;
    s.answered <- Array.make n 0;
    s.last <- Array.make n 0.0;
    s.withdrawn <- Array.make n false
  end

(* Fixed arrival-time buckets (simulated seconds): the first bound sits
   just past [post_overhead], the rest trace the burst window and the
   tail. Fixed bounds keep the exported histogram schema-stable. The
   spec is immutable and built once at module load — registration in
   the per-round hot path shares it instead of allocating and
   revalidating a fresh bounds array per call. *)
let arrival_bucket_spec =
  Metrics.bucket_spec
    [| 160.0; 180.0; 210.0; 240.0; 300.0; 420.0; 600.0; 900.0; 1800.0 |]

(* The canonical do-nothing completion callbacks ([batch_latency] only
   wants the report; [simulate] has no shared callback and
   [simulate_shared] no one-query one). The event loop recognizes them
   by physical equality and skips the indirect call — and the float
   boxing of its argument — on every completion. *)
let noop_complete (_ : int) (_ : float) = ()
let noop_shared ~query:(_ : int) (_ : int) (_ : float) = ()

let is_live s i = (not s.withdrawn.(i)) && s.answered.(i) < s.size.(i)
[@@alloc_free]

(* The query a free worker takes. A pickable query (not withdrawn, with
   unassigned questions) exists whenever this runs: both call sites
   check [unassigned > 0]. The single-candidate case draws nothing. The
   arrays are read out of [s] once, not per scanned query. *)
let pick_query s rng policy nq =
  let withdrawn = s.withdrawn and cursor = s.cursor and size = s.size in
  match policy with
  | Fifo ->
      let i = ref 0 in
      while withdrawn.(!i) || cursor.(!i) >= size.(!i) do
        incr i
      done;
      !i
  | Proportional ->
      let total_w = ref 0 and count = ref 0 and first = ref (-1) in
      for i = 0 to nq - 1 do
        if (not withdrawn.(i)) && cursor.(i) < size.(i) then begin
          total_w := !total_w + size.(i);
          incr count;
          if !first < 0 then first := i
        end
      done;
      if !count = 1 then !first
      else begin
        let r = ref (Rng.int rng !total_w) in
        let j = ref (-1) in
        let i = ref 0 in
        while !j < 0 do
          if (not withdrawn.(!i)) && cursor.(!i) < size.(!i) then begin
            if !r < size.(!i) then j := !i else r := !r - size.(!i)
          end;
          incr i
        done;
        !j
      end
[@@alloc_free]

let refresh_deadline s nq =
  s.clock.next_deadline <- Float.infinity;
  for i = 0 to nq - 1 do
    if is_live s i && s.deadline.(i) < s.clock.next_deadline then
      s.clock.next_deadline <- s.deadline.(i)
  done
[@@alloc_free]

(* Withdraw every live query whose deadline [time] is past. Only called
   when one is, so the arrival-rate constant always needs the update. *)
let withdraw s cfg time nq =
  for i = 0 to nq - 1 do
    if is_live s i && time > s.deadline.(i) then begin
      s.withdrawn.(i) <- true;
      s.live <- s.live - 1;
      s.visible <- s.visible - s.size.(i);
      s.unassigned <- s.unassigned - (s.size.(i) - s.cursor.(i))
    end
  done;
  if s.visible > 0 then s.clock.burst_mean <- 1.0 /. burst_rate_of cfg s.visible;
  refresh_deadline s nq
[@@alloc_free]

(* Run the marketplace over the [nq] queries whose sizes and deadlines
   are staged in [s]; the reports are then read back with [report_of].
   [shared] registers the two shared-only instruments. *)
let market s t rng ~metrics ~shared ~pick ~on_one ~on_shared nq =
  let cfg = t.cfg in
  if cfg.tail_rate <= 0.0 then invalid_arg "Platform: tail_rate must be > 0";
  let post = cfg.post_overhead in
  Metrics.add (Metrics.counter metrics ~section:"platform" "batches") nq;
  if shared then
    Metrics.incr (Metrics.counter metrics ~section:"platform" "shared_calls");
  let total = ref 0 in
  s.live <- 0;
  for i = 0 to nq - 1 do
    let q = s.size.(i) in
    s.cursor.(i) <- 0;
    s.answered.(i) <- 0;
    (* A query of size 0 never assigns anything: it ends at the batch's
       visibility time, or is cut off at an earlier deadline. *)
    s.last.(i) <- (if q = 0 then Float.min post s.deadline.(i) else post);
    s.withdrawn.(i) <- q = 0 && s.deadline.(i) < post;
    if q > 0 then s.live <- s.live + 1;
    total := !total + q
  done;
  let total = !total in
  if total > 0 then begin
    (* All platform metrics record *simulated* quantities (event times,
       queue depths), never the wall clock, so they are deterministic
       given the rng — and every recording call is a no-op branch when
       [metrics] is disabled. *)
    let m_events = Metrics.counter metrics ~section:"platform" "events_drained" in
    let m_arrivals = Metrics.counter metrics ~section:"platform" "worker_arrivals" in
    let m_completions = Metrics.counter metrics ~section:"platform" "completions" in
    let m_discarded =
      Metrics.counter
        (if shared then metrics else Metrics.disabled)
        ~section:"platform" "shared_discarded_answers"
    in
    let m_peak = Metrics.peak metrics ~section:"platform" "in_flight_peak" in
    let m_arrival_h =
      Metrics.histogram_spec metrics ~section:"platform" "arrival_seconds"
        ~buckets:arrival_bucket_spec
    in
    let cal = s.cal and clock = s.clock in
    let size = s.size and cursor = s.cursor and answered = s.answered in
    let last = s.last and withdrawn = s.withdrawn in
    (* A completion event carries its question as one ticket word: the
       index within its query shifted past [qbits], the query in the low
       bits (no bits at all for one query). *)
    let qbits = ref 0 in
    while 1 lsl !qbits < nq do
      incr qbits
    done;
    let qbits = !qbits in
    let qmask = (1 lsl qbits) - 1 in
    Event_calendar.clear cal;
    s.visible <- total;
    s.unassigned <- total;
    refresh_deadline s nq;
    (* Per-call constants, hoisted out of the loop: the exponential
       means, the log-normal location and the patience probability. The
       burst mean depends on visibility, so a withdrawal updates it. *)
    let burst_end = post +. cfg.burst_seconds in
    let diurnal = cfg.diurnal_amplitude > 0.0 in
    clock.burst_mean <- 1.0 /. burst_rate_of cfg total;
    let tail_mean = 1.0 /. cfg.tail_rate in
    let median = cfg.service.Worker.median_seconds in
    let sigma = cfg.service.Worker.sigma in
    let mu = if sigma <= 0.0 then 0.0 else Worker.service_mu cfg.service in
    let p_patience = 1.0 /. Float.max 1.0 cfg.patience_mean in
    let live_one = on_one != noop_complete in
    let live_shared = on_shared != noop_shared in
    (* The arrival stream is a scalar chain — at any moment exactly one
       future arrival exists (each processed arrival draws the next) —
       so it stays out of the calendar: the next event is the earlier of
       the pending arrival and the earliest completion, the arrival
       preferred on (measure-zero) exact ties. Once every question is
       assigned the chain dies without drawing a successor. *)
    clock.arrival <- arrival_after rng cfg total 0.0;
    let arrivals_alive = ref true in
    let taken = ref 0 in
    let completions_seen = ref 0 in
    (* The [@alloc_free] attribute puts the loop under the R6 lint gate:
       every call in it resolves to an annotated function, and the
       caller-supplied callbacks are marked [@alloc_cold]. The
       take-a-question step (pick a query, advance its cursor, record the
       queue peak, draw the service time, schedule the completion) and the
       steady arrival draw are written out at their event sites rather
       than through local closures: a closure call re-boxes the float
       event time on every event. *)
    (while s.live > 0 do
       if
         !arrivals_alive
         && (Event_calendar.is_empty cal
            || clock.arrival <= Event_calendar.min_time cal)
       then begin
         let time = clock.arrival in
         if time > clock.next_deadline then withdraw s cfg time nq;
         if s.live = 0 then ()
         else if s.unassigned > 0 then begin
           Metrics.incr m_events;
           Metrics.incr m_arrivals;
           Metrics.observe m_arrival_h time;
           (* [time] is a processed arrival, so it is >= [post] already
              and [arrival_after]'s clamp is a no-op: these are its
              draws exactly. *)
           clock.arrival <-
             (if diurnal then arrival_after rng cfg s.visible time
              else if time < burst_end then begin
                let dt = Rng.exponential rng clock.burst_mean in
                if time +. dt <= burst_end then time +. dt
                else burst_end +. Rng.exponential rng tail_mean
              end
              else time +. Rng.exponential rng tail_mean);
           let patience = draw_patience rng p_patience in
           let qi = if nq = 1 then 0 else pick_query s rng pick nq in
           let ticket = (cursor.(qi) lsl qbits) lor qi in
           cursor.(qi) <- cursor.(qi) + 1;
           s.unassigned <- s.unassigned - 1;
           incr taken;
           Metrics.record_peak m_peak (!taken - !completions_seen);
           let sv = if sigma <= 0.0 then median else Rng.lognormal rng ~mu ~sigma in
           Event_calendar.add cal ~time:(time +. sv) ticket (patience - 1)
         end
         else arrivals_alive := false
       end
       else if Event_calendar.is_empty cal then
         failwith
           "Platform: event loop ran dry with a live query (every live query \
            must have an in-flight question or a live arrival)"
       else begin
         let time = Event_calendar.min_time cal in
         if time > clock.next_deadline then withdraw s cfg time nq;
         if s.live > 0 then begin
           let ticket = Event_calendar.min_a cal in
           let patience = Event_calendar.min_b cal in
           Event_calendar.remove_min cal;
           Metrics.incr m_events;
           incr completions_seen;
           let qi = ticket land qmask in
           if withdrawn.(qi) then
             (* The requester stopped listening; the answer is lost but
                the worker is still on the market. *)
             Metrics.incr m_discarded
           else begin
             Metrics.incr m_completions;
             answered.(qi) <- answered.(qi) + 1;
             if time > last.(qi) then last.(qi) <- time;
             if live_one then (on_one [@alloc_cold]) (ticket lsr qbits) time
             else if live_shared then
               (on_shared [@alloc_cold]) ~query:qi (ticket lsr qbits) time;
             if answered.(qi) = size.(qi) then begin
               s.live <- s.live - 1;
               refresh_deadline s nq
             end
           end;
           if patience > 0 && s.unassigned > 0 then begin
             let qi = if nq = 1 then 0 else pick_query s rng pick nq in
             let ticket = (cursor.(qi) lsl qbits) lor qi in
             cursor.(qi) <- cursor.(qi) + 1;
             s.unassigned <- s.unassigned - 1;
             incr taken;
             Metrics.record_peak m_peak (!taken - !completions_seen);
             let sv =
               if sigma <= 0.0 then median else Rng.lognormal rng ~mu ~sigma
             in
             Event_calendar.add cal ~time:(time +. sv) ticket (patience - 1)
           end
         end
       end
     done)
    [@alloc_free]
  end

(* Query [i]'s report after [market]. [last_completion] is the last
   counted completion, surfaced even when a deadline clips [latency] to
   the cutoff: the observed time an estimator can trust. *)
let report_of s i =
  let withdrawn = s.withdrawn.(i) in
  {
    latency = (if withdrawn then s.deadline.(i) else s.last.(i));
    last_completion = s.last.(i);
    completed = s.answered.(i);
    in_flight = s.cursor.(i) - s.answered.(i);
    unassigned = s.size.(i) - s.cursor.(i);
    deadline_hit = withdrawn;
  }

let check_deadline d =
  if Float.is_nan d || d <= 0.0 then invalid_arg "Platform: deadline must be > 0"

let simulate ?(deadline = Float.infinity) ?(metrics = Metrics.disabled)
    ?scratch:scr t rng q ~on_complete =
  if q < 0 then invalid_arg "Platform: negative batch size";
  check_deadline deadline;
  let s = match scr with Some s -> s | None -> scratch () in
  s.size.(0) <- q;
  s.deadline.(0) <- deadline;
  market s t rng ~metrics ~shared:false ~pick:Fifo ~on_one:on_complete
    ~on_shared:noop_shared 1;
  report_of s 0

let batch_latency ?deadline ?metrics ?scratch t rng q =
  (simulate ?deadline ?metrics ?scratch t rng q ~on_complete:noop_complete)
    .latency

let simulate_shared ?deadlines ?(metrics = Metrics.disabled) ?scratch:scr t rng
    ~pick ~on_complete qs =
  let nq = Array.length qs in
  if nq = 0 then invalid_arg "Platform.simulate_shared: no queries";
  Array.iter
    (fun q -> if q < 0 then invalid_arg "Platform: negative batch size")
    qs;
  Option.iter
    (fun d ->
      if Array.length d <> nq then
        invalid_arg "Platform.simulate_shared: deadlines length mismatch";
      Array.iter check_deadline d)
    deadlines;
  let s = match scr with Some s -> s | None -> scratch () in
  reserve_queries s nq;
  Array.blit qs 0 s.size 0 nq;
  (match deadlines with
  | None -> Array.fill s.deadline 0 nq Float.infinity
  | Some d -> Array.blit d 0 s.deadline 0 nq);
  market s t rng ~metrics ~shared:true ~pick ~on_one:noop_complete
    ~on_shared:on_complete nq;
  Array.init nq (report_of s)
