(** Deterministic multicore fan-out on OCaml 5 domains.

    A [pool] owns [jobs - 1] worker domains (the calling domain is the
    [jobs]-th worker) that pull chunk tasks off a shared queue. [map]
    splits its index space into at most [jobs] contiguous chunks,
    evaluates the chunks concurrently, and reassembles the results in
    index order — so as long as [f i] does not depend on evaluation order
    (e.g. every element owns its own [Rng.t]), the output is bit-identical
    for any [jobs], including [jobs = 1] which runs inline without
    spawning anything.

    No dependencies beyond the stdlib ([Domain], [Mutex], [Condition]).
    Exceptions raised by [f] are re-raised in the caller once all chunks
    of the call have settled. Pools are small and cheap, but domains are
    not free: prefer [with_pool] around a whole sweep over creating a
    pool per call. *)

type pool
(** A fixed set of worker domains plus a shared task queue. *)

val create : jobs:int -> pool
(** [create ~jobs] spawns [jobs - 1] worker domains. [jobs] is clamped to
    at least 1. Raises [Invalid_argument] if [jobs] exceeds 128 (a guard
    against passing a run count where a domain count was meant). *)

val jobs : pool -> int
(** Worker parallelism of the pool (counting the calling domain). *)

val shutdown : pool -> unit
(** Joins all worker domains. The pool must not be used afterwards;
    calling [shutdown] twice is safe. *)

val with_pool : jobs:int -> (pool -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and always shuts the
    pool down, whether [f] returns or raises. *)

val map : pool -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] is [Array.map f arr] with chunks of [arr] evaluated
    on the pool's domains. Result order is the input order regardless of
    scheduling. *)

val map_chunks : jobs:int -> ('a array -> 'b array) -> 'a array -> 'b array
(** [map_chunks ~jobs f xs] splits [xs] into at most [jobs] contiguous
    slices, applies [f] to each slice on a fresh pool (one domain per
    slice) and concatenates the results in slice order; [jobs <= 1]
    calls [f xs] inline. Each call of [f] owns its slice, so per-worker
    state (scratch buffers, caches, metric registries) belongs inside
    [f]. The result is independent of [jobs] whenever [f] maps elements
    independently and [f a @ f b = f (a @ b)]. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: a sensible default for
    [--jobs] when the user asks for "all cores". *)
