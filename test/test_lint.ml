(* Source lints over lib/, bench/ and examples/.  Typed outcomes are
   never dropped: no code there may discard an [Endpoint.output] or
   [Endpoint.input] result with [ignore]; it matches on the result
   instead. *)

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '.' then []
         else if Sys.is_directory path then ml_files path
         else if Filename.check_suffix name ".ml" then [ path ]
         else [])

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' | '.' -> true
  | _ -> false

(* Line numbers of [ignore] applied to an endpoint call: [ignore], any
   blanks, parentheses or [@@], then [Endpoint.output] or
   [Endpoint.input], with or without the [Genie.] prefix. *)
let ignored_endpoint_calls text =
  let n = String.length text in
  let at i p =
    i + String.length p <= n && String.sub text i (String.length p) = p
  in
  let rec skip i =
    if i < n && String.contains " \t\r\n(@" text.[i] then skip (i + 1) else i
  in
  let line = ref 1 and hits = ref [] in
  for i = 0 to n - 1 do
    if text.[i] = '\n' then incr line
    else if at i "ignore" && (i = 0 || not (is_ident_char text.[i - 1])) then begin
      let j = skip (i + 6) in
      let j = if at j "Genie." then j + 6 else j in
      if at j "Endpoint.output" || at j "Endpoint.input" then
        hits := !line :: !hits
    end
  done;
  List.rev !hits

let test_scanner () =
  Alcotest.(check (list int))
    "flags each form" [ 1; 2; 4 ]
    (ignored_endpoint_calls
       "ignore (Endpoint.output ep ~sem ~buf ());\n\
        ignore @@ Genie.Endpoint.input ep;\n\
        ignore (Endpoint.cancel h); dont_ignore (Endpoint.input x);\n\
        ignore\n\
       \  (Genie.Endpoint.input eb)")

(* [anchor] is a file the tree must contain, so a missing dependency
   cannot pass as a clean tree. *)
let test_no_ignored_endpoint_results ~dir ~anchor () =
  let files = ml_files (Filename.concat ".." dir) in
  if not (List.exists (fun f -> Filename.basename f = anchor) files) then
    Alcotest.failf "%s/ sources not found" dir;
  let offenders =
    List.concat_map
      (fun path ->
        let text = In_channel.with_open_bin path In_channel.input_all in
        List.map
          (fun line -> Printf.sprintf "%s:%d" path line)
          (ignored_endpoint_calls text))
      files
  in
  Alcotest.(check (list string)) "ignored Endpoint results" [] offenders

let suite =
  [
    Alcotest.test_case "ignore scanner flags endpoint calls" `Quick test_scanner;
  ]
  @ List.map
      (fun (dir, anchor) ->
        Alcotest.test_case
          ("no ignored Endpoint result under " ^ dir)
          `Quick
          (test_no_ignored_endpoint_results ~dir ~anchor))
      [
        ("lib", "endpoint.ml"); ("bench", "sections.ml"); ("examples", "quickstart.ml");
      ]
