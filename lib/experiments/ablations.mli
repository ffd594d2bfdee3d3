(** Ablations and extensions beyond the paper's figures.

    Eight tables, each printed under its own section header:
    adaptive re-planning vs static tDP (seed 3), the CT split point
    (seed 7), the RWL repetition factor (seed 11), top-k with answer
    reuse (seed 5), SORT strategies (seed 11), diurnal posting time
    (seed 13), the cost-latency frontier (deterministic) and the error
    robustness sweep ({!Robustness}, its own seed 43, at
    [max 10 (runs / 2)] runs). *)

val print : ?jobs:int -> ?runs:int -> ?seed:int -> unit -> unit
(** Runs and prints every table. Defaults: 30 runs; without [seed] each
    table uses its own seed listed above, with it every table uses
    [seed]. [jobs] fans replicated runs across domains; the tables are
    bit-identical for every value. *)
