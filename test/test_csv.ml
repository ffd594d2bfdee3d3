module Csv = Crowdmax_util.Csv

let tc = Alcotest.test_case
let check_str = Alcotest.check Alcotest.string

let test_plain_fields () =
  check_str "untouched" "abc" (Csv.escape_field "abc");
  check_str "empty" "" (Csv.escape_field "")

let test_quoting () =
  check_str "comma" "\"a,b\"" (Csv.escape_field "a,b");
  check_str "quote doubled" "\"say \"\"hi\"\"\"" (Csv.escape_field "say \"hi\"");
  check_str "newline" "\"a\nb\"" (Csv.escape_field "a\nb")

let test_line () =
  check_str "joined" "a,\"b,c\",d" (Csv.line [ "a"; "b,c"; "d" ])

let test_to_string () =
  check_str "document" "x,y\n1,2\n3,4\n"
    (Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4" ] ])

let test_arity_checked () =
  Alcotest.check_raises "bad row"
    (Invalid_argument "Csv.to_string: row 0 arity mismatch") (fun () ->
      ignore (Csv.to_string ~header:[ "a"; "b" ] [ [ "1" ] ]))

let test_write_file () =
  let path = Filename.temp_file "crowdmax" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write_file ~path ~header:[ "h" ] [ [ "v" ] ];
      let ic = open_in path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check_str "roundtrip" "h\nv\n" contents)

let suite =
  [
    ( "csv",
      [
        tc "plain fields" `Quick test_plain_fields;
        tc "quoting" `Quick test_quoting;
        tc "line" `Quick test_line;
        tc "to_string" `Quick test_to_string;
        tc "arity checked" `Quick test_arity_checked;
        tc "write file" `Quick test_write_file;
      ] );
  ]
