(* Source lints.  Typed outcomes are never dropped: no code under lib/,
   bench/ or examples/ may discard an [Endpoint.output] or
   [Endpoint.input] result with [ignore]; it matches on the result
   instead.  And every [val] a lib/ interface exports has a caller
   outside its own module. *)

let rec source_files ~suffix dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '.' then []
         else if Sys.is_directory path then source_files ~suffix path
         else if Filename.check_suffix name suffix then [ path ]
         else [])

let ml_files = source_files ~suffix:".ml"

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

(* {1 Every lib export has a caller}

   An export is a [val] in a [lib/**/*.mli].  Its caller is a reference
   from an [.ml] under lib/, bin/, bench/, examples/, perfbench/ or
   test/ other than the module's own: [M.v], [Lib.M.v], [X.v] after
   [module X = ...M], or a bare [v] in a file that opens [M] ([open M],
   [let open M in] or [M.( ... )]).  Tests count as callers, so a
   test-only hook needs no allowlist entry.  Comments and string
   literals name nothing. *)

(* [text] with every comment, string and character literal blanked;
   newlines stay, so offsets and line numbers do not move. *)
let blank_comments_and_strings text =
  let n = String.length text in
  let out = Bytes.of_string text in
  let blank i j =
    for k = i to min j n - 1 do
      if text.[k] <> '\n' then Bytes.set out k ' '
    done
  in
  let at i p =
    i + String.length p <= n && String.sub text i (String.length p) = p
  in
  (* End of the string literal whose opening quote is just before [i]. *)
  let rec string_end i =
    if i >= n then n
    else if text.[i] = '\\' then string_end (i + 2)
    else if text.[i] = '"' then i + 1
    else string_end (i + 1)
  in
  (* End of the quoted string [{id|...|id}] opening at [i], if one does. *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (match text.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if !j < n && text.[!j] = '|' then begin
      let close = "|" ^ String.sub text (i + 1) (!j - i - 1) ^ "}" in
      let rec find k =
        if k >= n then n
        else if at k close then k + String.length close
        else find (k + 1)
      in
      Some (find (!j + 1))
    end
    else None
  in
  (* End of the character literal opening at [i], if one does: ['x'] or
     ['\...'], not a type variable or an identifier's prime. *)
  let char_end i =
    if i + 2 < n && text.[i + 1] <> '\\' && text.[i + 2] = '\'' then Some (i + 3)
    else if i + 1 < n && text.[i + 1] = '\\' then
      let rec close k =
        if k >= n || k > i + 6 then None
        else if text.[k] = '\'' && k > i + 2 then Some (k + 1)
        else close (k + 1)
      in
      close (i + 2)
    else None
  in
  let rec comment_end i depth =
    if i >= n then n
    else if at i "(*" then comment_end (i + 2) (depth + 1)
    else if at i "*)" then if depth = 1 then i + 2 else comment_end (i + 2) (depth - 1)
    else if text.[i] = '"' then comment_end (string_end (i + 1)) depth
    else comment_end (i + 1) depth
  in
  let skip i j = blank i j; j in
  let rec go i =
    if i < n then
      if at i "(*" then go (skip i (comment_end (i + 2) 1))
      else
        match text.[i] with
        | '"' -> go (skip i (string_end (i + 1)))
        | '{' -> go (match quoted_end i with Some j -> skip i j | None -> i + 1)
        | '\'' when i = 0 || not (is_ident_char text.[i - 1]) ->
          go (match char_end i with Some j -> skip i j | None -> i + 1)
        | _ -> go (i + 1)
  in
  go 0;
  Bytes.to_string out

(* Dotted paths ([Lib.M.v], [M.], [x]) and single punctuation, in order. *)
let tokens text =
  let n = String.length text in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ident_char text.[i] then begin
      let j = ref i in
      while !j < n && is_ident_char text.[!j] do incr j done;
      go !j (String.sub text i (!j - i) :: acc)
    end
    else if String.contains " \t\r\n" text.[i] then go (i + 1) acc
    else go (i + 1) (String.make 1 text.[i] :: acc)
  in
  go 0 []

let is_module s = s <> "" && match s.[0] with 'A' .. 'Z' -> true | _ -> false
let is_value s = s <> "" && match s.[0] with 'a' .. 'z' | '_' -> true | _ -> false

let last_module path =
  List.fold_left
    (fun acc c -> if is_module c then Some c else acc)
    None (String.split_on_char '.' path)

(* The [val] names an interface exports. *)
let exports_of_mli text =
  let rec go = function
    | "val" :: name :: rest when is_value name -> name :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go (tokens (blank_comments_and_strings text))

(* Every [(module, value)] pair a source text names, with its own
   [module X = ...M] aliases and its opens resolved. *)
let references text =
  let toks = tokens (blank_comments_and_strings text) in
  let aliases = Hashtbl.create 8 and opened = ref [] in
  let rec scan = function
    | "module" :: x :: "=" :: path :: rest when is_module x ->
      Option.iter (Hashtbl.replace aliases x) (last_module path);
      scan rest
    | "open" :: ("!" :: path :: rest | path :: rest) ->
      Option.iter (fun m -> opened := m :: !opened) (last_module path);
      scan rest
    | path :: rest ->
      if String.ends_with ~suffix:"." path then
        Option.iter (fun m -> opened := m :: !opened) (last_module path);
      scan rest
    | [] -> ()
  in
  scan toks;
  let resolve m = Option.value ~default:m (Hashtbl.find_opt aliases m) in
  (* Every [M.v] in a path, so [M.record.N.field] names both. *)
  let rec qualified = function
    | m :: (v :: _ as rest) when is_module m && is_value v ->
      (resolve m, v) :: qualified rest
    | _ :: rest -> qualified rest
    | [] -> []
  in
  List.concat_map
    (fun tok ->
      match String.split_on_char '.' tok with
      | v :: _ as path when is_value v ->
        List.map (fun m -> (m, v)) !opened @ qualified path
      | path -> qualified path)
    toks

(* [exports] are [(own_file, module, values)]; [sources] are
   [(file, text)].  The result names each export no other source calls. *)
let uncalled ~exports ~sources =
  let calls = Hashtbl.create 4096 in
  List.iter
    (fun (file, text) ->
      List.iter (fun r -> Hashtbl.replace calls (r, file) ()) (references text))
    sources;
  let called_outside own r =
    List.exists (fun (file, _) -> file <> own && Hashtbl.mem calls (r, file)) sources
  in
  List.concat_map
    (fun (own, m, values) ->
      List.filter_map
        (fun v -> if called_outside own (m, v) then None else Some (m ^ "." ^ v))
        values)
    exports

let test_export_scanner () =
  let foo = "lib/foo.ml" in
  Alcotest.(check (list string))
    "uncalled exports"
    [ "Foo.self_only"; "Foo.in_comment"; "Foo.in_string"; "Foo.elsewhere" ]
    (uncalled
       ~exports:
         [
           ( foo,
             "Foo",
             exports_of_mli
               "val direct : int\n\
                (** doc: val not_an_export : int *)\n\
                val qualified : int\n\
                val aliased : int\n\
                val opened : int\n\
                val local : int\n\
                val self_only : int\n\
                val in_comment : int\n\
                val in_string : int\n\
                val elsewhere : int" );
         ]
       ~sources:
         [
           (foo, "let self_only = 1 let _ = Foo.self_only");
           ( "a.ml",
             "module X = Lib.Foo\n\
              let _ = Foo.direct + Lib.Foo.qualified.Bar.field + X.aliased\n\
              (* Foo.in_comment *) let _ = \"Foo.in_string\" ^ '\"' ^ Bar.elsewhere" );
           ("b.ml", "open Lib.Foo let _ = opened");
           ("c.ml", "let _ = Lib.Foo.(local + 1)");
         ])

(* The [(own_file, module, values)] of every interface under lib/. *)
let lib_exports () =
  List.map
    (fun mli ->
      let base = Filename.chop_suffix mli ".mli" in
      ( base ^ ".ml",
        String.capitalize_ascii (Filename.basename base),
        exports_of_mli (In_channel.with_open_bin mli In_channel.input_all) ))
    (source_files ~suffix:".mli" (Filename.concat ".." "lib"))

let test_every_export_called () =
  let exports = lib_exports () in
  if not (List.exists (fun (_, m, _) -> m = "Endpoint") exports) then
    Alcotest.fail "lib/ interfaces not found";
  let sources =
    List.concat_map
      (fun dir ->
        let files = ml_files (Filename.concat ".." dir) in
        if files = [] then Alcotest.failf "%s/ sources not found" dir;
        List.map
          (fun f -> (f, In_channel.with_open_bin f In_channel.input_all))
          files)
      [ "lib"; "bin"; "bench"; "examples"; "perfbench"; "test" ]
  in
  Alcotest.(check (list string))
    "exports with no caller outside their module" [] (uncalled ~exports ~sources)

let suite =
  [
    Alcotest.test_case "ignore scanner flags endpoint calls" `Quick test_scanner;
    Alcotest.test_case "export scanner finds callers" `Quick test_export_scanner;
    Alcotest.test_case "every lib export has a caller outside its module" `Quick
      test_every_export_called;
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
