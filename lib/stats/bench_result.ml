(* Machine-readable benchmark results.

   A [t] is one benchmark section's output: run metadata (section name,
   environment stamp), plus a list of named metrics, each one value.
   Sections record metrics through a mutable [collector]; the result
   serializes to/from the stable JSON schema documented in
   docs/BENCHMARKING.md and is written as BENCH_<section>.json.

   Every metric comes from the deterministic simulator, so it is
   exactly reproducible and the regression gate is strict about it.
   [better] says which direction is an improvement; [Neutral] marks
   calibration values. *)

let schema_version = 2

type better = Lower | Higher | Neutral

type metric = { name : string; unit_ : string; better : better; value : float }

type env = { os_type : string; word_size : int; ocaml_version : string }

type t = {
  section : string;
  created : string option;
  env : env;
  metrics : metric list;
}

let current_env () =
  { os_type = Sys.os_type; word_size = Sys.word_size; ocaml_version = Sys.ocaml_version }

(* {1 Collector} *)

type collector = {
  c_section : string;
  mutable c_created : string option;
  mutable c_rev_metrics : metric list;
}

let create_collector ~section () =
  { c_section = section; c_created = None; c_rev_metrics = [] }

let set_created c created = c.c_created <- Some created

(* A non-finite value is a broken run (a transfer that never completed
   leaves its time at [nan]); it must fail the section, not vanish from
   a refreshed baseline. *)
let scalar c ~name ~unit_ ?(better = Lower) value =
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Bench_result.scalar: non-finite value in %S" name);
  if List.exists (fun m -> String.equal m.name name) c.c_rev_metrics then
    invalid_arg (Printf.sprintf "Bench_result.scalar: duplicate metric %S" name);
  c.c_rev_metrics <- { name; unit_; better; value } :: c.c_rev_metrics

let collector_is_empty c = c.c_rev_metrics = []

let result c =
  {
    section = c.c_section;
    created = c.c_created;
    env = current_env ();
    metrics = List.rev c.c_rev_metrics;
  }

(* {1 JSON (de)serialization} *)

let better_name = function Lower -> "lower" | Higher -> "higher" | Neutral -> "neutral"

let better_of_name = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | "neutral" -> Some Neutral
  | _ -> None

let metric_to_json m =
  Json.Obj
    [
      ("name", Json.Str m.name);
      ("unit", Json.Str m.unit_);
      ("better", Json.Str (better_name m.better));
      ("value", Json.Float m.value);
    ]

let to_json t =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("section", Json.Str t.section);
      ("created", match t.created with Some s -> Json.Str s | None -> Json.Null);
      ( "env",
        Json.Obj
          [
            ("os_type", Json.Str t.env.os_type);
            ("word_size", Json.Int t.env.word_size);
            ("ocaml_version", Json.Str t.env.ocaml_version);
          ] );
      ("metrics", Json.List (List.map metric_to_json t.metrics));
    ]

let to_string t = Json.to_string (to_json t)

let metric_of_json j =
  let ( let* ) = Result.bind in
  let str key =
    match Option.bind (Json.member key j) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "metric: missing or non-string %S" key)
  in
  let* name = str "name" in
  let* unit_ = str "unit" in
  let* better_s = str "better" in
  let* better =
    match better_of_name better_s with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "metric %s: unknown better %S" name better_s)
  in
  let* value =
    match Option.bind (Json.member "value" j) Json.to_float with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "metric %s: missing or non-numeric value" name)
  in
  Ok { name; unit_; better; value }

let of_json j =
  let ( let* ) = Result.bind in
  let* () =
    match Option.bind (Json.member "schema_version" j) Json.to_int with
    | Some v when v = schema_version -> Ok ()
    | Some 1 ->
      Error
        "schema_version 1 is no longer read; refresh the file with \
         `genie_cli bench run --out DIR`"
    | Some v -> Error (Printf.sprintf "unsupported schema_version %d" v)
    | None -> Error "missing schema_version"
  in
  let* section =
    match Option.bind (Json.member "section" j) Json.to_str with
    | Some s -> Ok s
    | None -> Error "missing section"
  in
  let created = Option.bind (Json.member "created" j) Json.to_str in
  let* env =
    match Json.member "env" j with
    | Some ej ->
      Ok
        {
          os_type =
            Option.value ~default:"?" (Option.bind (Json.member "os_type" ej) Json.to_str);
          word_size =
            Option.value ~default:0 (Option.bind (Json.member "word_size" ej) Json.to_int);
          ocaml_version =
            Option.value ~default:"?"
              (Option.bind (Json.member "ocaml_version" ej) Json.to_str);
        }
    | None -> Error "missing env"
  in
  let* metrics =
    match Option.bind (Json.member "metrics" j) Json.to_list with
    | Some items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* m = metric_of_json item in
          Ok (m :: acc))
        (Ok []) items
      |> Result.map List.rev
    | None -> Error "missing metrics"
  in
  Ok { section; created; env; metrics }

let of_string s = Result.bind (Json.of_string s) of_json

(* {1 Files} *)

let filename section = "BENCH_" ^ section ^ ".json"

let write ~dir t =
  let path = Filename.concat dir (filename t.section) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t));
  path

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Result.map_error (fun e -> Printf.sprintf "%s: %s" path e) (of_string s)
  | exception Sys_error e -> Error e

let find_metric t name = List.find_opt (fun m -> String.equal m.name name) t.metrics
