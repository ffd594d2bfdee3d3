(* Prints Fig. 12 at 2 runs with the figure's own seed: the table
   `crowdmax experiment fig12 --runs 2` must print (see test/dune). *)

let () = Crowdmax_experiments.Fig12.print (Crowdmax_experiments.Fig12.run ~runs:2 ())
