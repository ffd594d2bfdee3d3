(* A fixed pool of worker domains fed from one task queue.

   Chunk results are written into per-chunk slots and concatenated in
   index order, so scheduling never changes what a caller observes. The
   calling domain participates in draining the queue, which both saves a
   domain and guarantees progress when [jobs = 1] worker pools are asked
   to map (no deadlock waiting on nonexistent workers). *)

type task = Run of (unit -> unit) | Quit

type pool = {
  jobs : int;
  mutex : Mutex.t;
  pending : Condition.t;  (* signalled when a task is enqueued *)
  queue : task Queue.t;
  mutable domains : unit Domain.t list;
}

let max_jobs = 128

let worker pool () =
  let rec loop () =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.queue do
      Condition.wait pool.pending pool.mutex
    done;
    let task = Queue.pop pool.queue in
    Mutex.unlock pool.mutex;
    match task with
    | Run f ->
        f ();
        loop ()
    | Quit -> ()
  in
  loop ()

let create ~jobs =
  if jobs > max_jobs then
    invalid_arg
      (Printf.sprintf "Parallel.create: jobs = %d exceeds the cap of %d" jobs
         max_jobs);
  let jobs = max 1 jobs in
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      pending = Condition.create ();
      queue = Queue.create ();
      domains = [];
    }
  in
  pool.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker pool));
  pool

let jobs pool = pool.jobs

let shutdown pool =
  let domains = pool.domains in
  pool.domains <- [];
  Mutex.lock pool.mutex;
  List.iter (fun _ -> Queue.push Quit pool.queue) domains;
  Condition.broadcast pool.pending;
  Mutex.unlock pool.mutex;
  List.iter Domain.join domains

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Split [0, n) into at most [jobs] contiguous chunks of near-equal
   size: (start, length) per chunk, lengths differing by at most 1. *)
let chunk_bounds ~jobs n =
  let k = min jobs n in
  let base = n / k and extra = n mod k in
  Array.init k (fun i ->
      let lo = (i * base) + min i extra in
      let len = base + if i < extra then 1 else 0 in
      (lo, len))

let map pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if pool.jobs = 1 || n = 1 then Array.map f arr
  else begin
    let bounds = chunk_bounds ~jobs:pool.jobs n in
    let k = Array.length bounds in
    let slots = Array.make k None in
    let failure = ref None in
    let remaining = ref k in
    let settled = Condition.create () in
    let run_chunk i =
      let lo, len = bounds.(i) in
      let outcome =
        try
          (* explicit left-to-right loop: [f] may have per-element side
             effects (each element owning its own rng) and Array.init's
             evaluation order is unspecified *)
          let out = Array.make len (f arr.(lo)) in
          for j = 1 to len - 1 do
            out.(j) <- f arr.(lo + j)
          done;
          Ok out
        with e -> Error e
      in
      Mutex.lock pool.mutex;
      (match outcome with
      | Ok out -> slots.(i) <- Some out
      | Error e -> if Option.is_none !failure then failure := Some e);
      decr remaining;
      if !remaining = 0 then Condition.broadcast settled;
      Mutex.unlock pool.mutex
    in
    Mutex.lock pool.mutex;
    for i = 1 to k - 1 do
      Queue.push (Run (fun () -> run_chunk i)) pool.queue
    done;
    Condition.broadcast pool.pending;
    Mutex.unlock pool.mutex;
    (* the caller takes chunk 0 itself, then helps drain the queue *)
    run_chunk 0;
    let rec help () =
      Mutex.lock pool.mutex;
      if !remaining = 0 then Mutex.unlock pool.mutex
      else begin
        match Queue.take_opt pool.queue with
        | Some (Run f) ->
            Mutex.unlock pool.mutex;
            f ();
            help ()
        | Some Quit | None ->
            (* Quit can only appear after shutdown, which would be a use-
               after-shutdown bug; treat it as "nothing left to steal". *)
            while !remaining > 0 do
              Condition.wait settled pool.mutex
            done;
            Mutex.unlock pool.mutex
      end
    in
    help ();
    match !failure with
    | Some e -> raise e
    | None ->
        Array.concat
          (Array.to_list
             (Array.map
                (function
                  | Some chunk -> chunk
                  | None -> assert false (* settled without a failure *))
                slots))
  end

let map_chunks ~jobs f xs =
  let n = Array.length xs in
  if jobs <= 1 || n <= 1 then f xs
  else begin
    (* Slice before fanning out, so each worker receives its chunk as
       the argument of [f] instead of capturing [xs]. *)
    let slices =
      Array.map (fun (lo, len) -> Array.sub xs lo len) (chunk_bounds ~jobs n)
    in
    with_pool ~jobs:(Array.length slices) (fun pool ->
        Array.concat (Array.to_list (map pool f slices)))
  end

let recommended_jobs () = Domain.recommended_domain_count ()
