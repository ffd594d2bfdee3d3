(* Command line: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
   Prints the metric table, a result record naming the measured tree,
   and, as the last line, the summary JSON. Exits 0 only when every
   query passed its output checks. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload <engine-sim|adaptive-drift|serve-fleet32|paper-sweep> \
     --seed <n> --seconds <s> --trace <0|1>";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s
        | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match Option.bind !workload Crowdbench.Workload.find with
    | Some w -> w
    | None -> usage ()
  in
  if not (String.equal Crowdbench.Build_profile.value "release") then begin
    Printf.eprintf
      "crowdbench: refusing to report a %s-profile build (it compiles with \
       -opaque); build with --profile release\n"
      Crowdbench.Build_profile.value;
    exit 2
  end;
  let r =
    if !trace then Crowdbench.Harness.traced w ~seed:!seed ~seconds:!seconds
    else Crowdbench.Harness.untraced w ~seed:!seed ~seconds:!seconds
  in
  Crowdbench.Harness.print r;
  exit (if Crowdbench.Harness.correct r then 0 else 1)
