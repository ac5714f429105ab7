(* Telemetry subsystem: histogram quantile accuracy, registry snapshots
   and their determinism, span nesting balance, and well-formedness of
   the Chrome trace export (parsed with a minimal JSON reader so no
   extra dependency is needed). *)

module H = Telemetry.Histogram
module M = Telemetry.Metrics
module T = Telemetry.Trace

(* ------------------------------------------------------------------ *)
(* A minimal JSON well-formedness checker                              *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
          advance ();
          Buffer.add_char b '?';
          go ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done;
          Buffer.add_char b '?';
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let token = String.sub s start (!pos - start) in
    match float_of_string_opt token with
    | Some f -> f
    | None -> fail ("bad number " ^ token)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected , or }"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        Arr (items [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let check_close name ~tolerance expected actual =
  let rel = Float.abs (actual -. expected) /. Float.max 1e-9 (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.4f within %.0f%% of %.4f" name actual (100. *. tolerance)
       expected)
    true (rel <= tolerance)

let test_histogram_uniform () =
  let h = H.create () in
  for v = 1 to 10_000 do
    H.observe h (float_of_int v)
  done;
  Alcotest.(check int) "count" 10_000 (H.count h);
  Alcotest.(check (float 1e-6)) "min" 1.0 (H.min_value h);
  Alcotest.(check (float 1e-6)) "max" 10_000.0 (H.max_value h);
  check_close "mean" ~tolerance:1e-9 5000.5 (H.mean h);
  (* Log-bucketed quantiles: a bucket spans ~12%, so allow that. *)
  check_close "p50" ~tolerance:0.13 5000.0 (H.quantile h 0.50);
  check_close "p90" ~tolerance:0.13 9000.0 (H.quantile h 0.90);
  check_close "p99" ~tolerance:0.13 9900.0 (H.quantile h 0.99)

let test_histogram_lognormal_like () =
  (* A two-decade spread: 90% of mass at 10, 10% at 1000. *)
  let h = H.create () in
  for _ = 1 to 900 do
    H.observe h 10.0
  done;
  for _ = 1 to 100 do
    H.observe h 1000.0
  done;
  check_close "p50" ~tolerance:0.13 10.0 (H.quantile h 0.50);
  check_close "p99" ~tolerance:0.13 1000.0 (H.quantile h 0.99)

let test_histogram_edge_cases () =
  let h = H.create () in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (H.quantile h 0.5);
  H.observe h 0.0;
  H.observe h (-5.0);
  H.observe h 2.0;
  Alcotest.(check int) "count with zeros" 3 (H.count h);
  (* Two of three observations are <= 0, so the median is the zero bucket. *)
  Alcotest.(check (float 1e-9)) "p50 dominated by zero bucket" 0.0
    (H.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p99 positive" 2.0 (H.quantile h 0.99)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let populate reg =
  let c = M.counter reg "txs.processed" in
  M.inc c;
  M.inc ~by:41 c;
  M.set (M.gauge reg "mempool.bytes") 123.5;
  M.observe reg "latency" 0.25;
  M.observe reg "latency" 0.75

let test_registry_snapshot () =
  let reg = M.create () in
  populate reg;
  let json = M.to_json_string reg in
  (match parse_json (String.trim json) with
  | Obj fields ->
    Alcotest.(check (list string)) "series sorted by name"
      [ "latency"; "mempool.bytes"; "txs.processed" ]
      (List.map fst fields);
    (match List.assoc "txs.processed" fields with
    | Obj c -> Alcotest.(check bool) "counter value" true (List.assoc "value" c = Num 42.0)
    | _ -> Alcotest.fail "counter not an object")
  | _ -> Alcotest.fail "snapshot not an object");
  (* Registering the same name with another kind is a hard error. *)
  Alcotest.check_raises "kind mismatch"
    (Failure "Metrics: series kind mismatch for txs.processed") (fun () ->
      ignore (M.gauge reg "txs.processed"))

let test_registry_deterministic () =
  let a = M.create () and b = M.create () in
  populate a;
  populate b;
  Alcotest.(check string) "identical registries snapshot identically"
    (M.to_json_string a) (M.to_json_string b);
  Alcotest.(check string) "prometheus dump identical too" (M.to_prometheus a)
    (M.to_prometheus b);
  Alcotest.(check bool) "prometheus has quantile lines" true
    (let dump = M.to_prometheus a in
     let contains hay needle =
       let ln = String.length needle and lh = String.length hay in
       let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
       go 0
     in
     contains dump "latency{quantile=\"0.99\"}")

(* ------------------------------------------------------------------ *)
(* Span tracer                                                         *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let tr = T.create ~enabled:true () in
  T.begin_span tr ~name:"epoch" ~ts:0.0 ();
  T.begin_span tr ~name:"round" ~ts:1.0 ();
  Alcotest.(check int) "two open spans" 2 (T.depth tr);
  T.end_span tr ~ts:2.0 ();
  T.end_span tr ~ts:3.0 ();
  Alcotest.(check int) "balanced" 0 (T.depth tr);
  Alcotest.check_raises "unbalanced end rejected"
    (Failure "Trace.end_span: no open span") (fun () -> T.end_span tr ~ts:4.0 ())

let test_disabled_tracer_records_nothing () =
  let tr = T.create () in
  T.begin_span tr ~name:"x" ~ts:0.0 ();
  T.complete tr ~name:"y" ~ts:0.0 ~dur:1.0 ();
  T.end_span tr ~ts:1.0 ();
  Alcotest.(check int) "no events" 0 (T.event_count tr)

let test_chrome_export_well_formed () =
  let tr = T.create ~enabled:true () in
  T.complete tr ~name:"traffic" ~ts:0.0 ~dur:2.1
    ~args:[ ("generated", Telemetry.Json.Int 7) ]
    ();
  T.begin_span tr ~name:"meta \"quoted\"\nblock" ~ts:2.1 ();
  T.end_span tr ~ts:5.0 ();
  T.instant tr ~name:"prune" ~ts:6.0 ();
  let json = parse_json (String.trim (T.to_chrome_json tr)) in
  match json with
  | Obj fields ->
    (match List.assoc "traceEvents" fields with
    | Arr events ->
      let phase ev =
        match ev with
        | Obj f -> (
          match List.assoc "ph" f with Str p -> p | _ -> Alcotest.fail "ph not a string")
        | _ -> Alcotest.fail "event not an object"
      in
      let phases = List.map phase events in
      let count p = List.length (List.filter (String.equal p) phases) in
      Alcotest.(check int) "four events" 4 (List.length events);
      Alcotest.(check int) "B/E matched" (count "B") (count "E");
      Alcotest.(check int) "one complete event" 1 (count "X");
      List.iter
        (fun ev ->
          match ev with
          | Obj f ->
            Alcotest.(check bool) "has ts" true (List.mem_assoc "ts" f);
            Alcotest.(check bool) "has pid/tid" true
              (List.mem_assoc "pid" f && List.mem_assoc "tid" f);
            if phase ev = "X" then
              Alcotest.(check bool) "X has dur" true (List.mem_assoc "dur" f)
          | _ -> Alcotest.fail "event not an object")
        events
    | _ -> Alcotest.fail "traceEvents not an array")
  | _ -> Alcotest.fail "trace not an object"

(* ------------------------------------------------------------------ *)
(* End-to-end: instrumented run determinism                            *)
(* ------------------------------------------------------------------ *)

let test_system_metrics_deterministic () =
  let open Ammboost in
  let cfg =
    { Config.default with
      epochs = 2; daily_volume = 20_000; users = 12; miners = 30;
      committee_size = 10; max_faulty = 2; seed = "telemetry-determinism" }
  in
  let snapshot () =
    let sink = (System.run ~trace:true cfg).System.telemetry in
    (M.to_json_string sink.Telemetry.Report.metrics,
     T.to_chrome_json sink.Telemetry.Report.trace)
  in
  let m1, t1 = snapshot () in
  let m2, t2 = snapshot () in
  Alcotest.(check string) "metrics snapshots byte-identical" m1 m2;
  Alcotest.(check string) "trace exports byte-identical" t1 t2;
  (match parse_json (String.trim m1) with
  | Obj fields ->
    Alcotest.(check bool)
      (Printf.sprintf "at least 10 series (%d)" (List.length fields))
      true
      (List.length fields >= 10);
    let histograms =
      List.filter
        (fun (_, series) ->
          match series with
          | Obj f -> List.assoc_opt "type" f = Some (Str "histogram")
          | _ -> false)
        fields
    in
    Alcotest.(check bool) "some histogram series" true (histograms <> []);
    List.iter
      (fun (name, series) ->
        match series with
        | Obj f ->
          Alcotest.(check bool) (name ^ " has p50 and p99") true
            (List.mem_assoc "p50" f && List.mem_assoc "p99" f)
        | _ -> ())
      histograms
  | _ -> Alcotest.fail "metrics not an object");
  match parse_json (String.trim t1) with
  | Obj fields ->
    let events =
      match List.assoc_opt "traceEvents" fields with
      | Some (Arr evs) -> evs
      | _ -> Alcotest.fail "traceEvents not an array"
    in
    let field key = function
      | Obj f -> (match List.assoc_opt key f with Some (Str v) -> v | _ -> "")
      | _ -> ""
    in
    let names = List.map (field "name") events in
    List.iter
      (fun phase -> Alcotest.(check bool) (phase ^ " span") true (List.mem phase names))
      [ "traffic"; "meta-block"; "summary"; "sign"; "sync" ];
    let count ph = List.length (List.filter (fun e -> field "ph" e = ph) events) in
    Alcotest.(check int) "balanced B/E events" (count "B") (count "E")
  | _ -> Alcotest.fail "trace not an object"

(* ------------------------------------------------------------------ *)
(* The library JSON parser (Telemetry.Json.parse)                      *)
(* ------------------------------------------------------------------ *)

module J = Telemetry.Json

let test_json_parse_roundtrip () =
  (* Everything the emitters produce must parse back structurally. *)
  let doc =
    J.obj
      [ ("schema", J.string "t/1"); ("count", J.value (J.Int 42));
        ("rate", J.value (J.Float 1.5)); ("ok", J.value (J.Bool true));
        ("tags", J.array [ J.string "a"; J.string "b" ]);
        ("nested", J.obj [ ("x", J.value (J.Int (-7))) ]) ]
  in
  match J.parse doc with
  | Error e -> Alcotest.failf "emitted JSON must parse: %s" e
  | Ok v ->
    Alcotest.(check bool) "schema" true (J.member "schema" v = Some (J.Jstring "t/1"));
    Alcotest.(check bool) "count" true (J.member "count" v = Some (J.Jnumber 42.0));
    Alcotest.(check bool) "rate" true (J.member "rate" v = Some (J.Jnumber 1.5));
    Alcotest.(check bool) "ok" true (J.member "ok" v = Some (J.Jbool true));
    Alcotest.(check bool) "tags" true
      (J.member "tags" v = Some (J.Jarray [ J.Jstring "a"; J.Jstring "b" ]));
    (match J.member "nested" v with
    | Some nested ->
      Alcotest.(check bool) "nested x" true
        (J.member "x" nested = Some (J.Jnumber (-7.0)))
    | None -> Alcotest.fail "nested object missing")

let test_json_parse_escapes () =
  let s = "line1\nline2\ttab \"quoted\" back\\slash" in
  match J.parse (J.string s) with
  | Ok (J.Jstring s') -> Alcotest.(check string) "escape roundtrip" s s'
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_parse_literals () =
  List.iter
    (fun (src, expect) ->
      match J.parse src with
      | Ok v -> Alcotest.(check bool) src true (v = expect)
      | Error e -> Alcotest.failf "%s: %s" src e)
    [ ("null", J.Jnull); ("true", J.Jbool true); ("false", J.Jbool false);
      ("[]", J.Jarray []); ("{}", J.Jobject []); ("-12.5e2", J.Jnumber (-1250.0));
      ("  [1, 2]  ", J.Jarray [ J.Jnumber 1.0; J.Jnumber 2.0 ]) ]

let test_json_parse_errors () =
  List.iter
    (fun src ->
      match J.parse src with
      | Ok _ -> Alcotest.failf "%S should not parse" src
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "\"unterminated"; "tru"; "1 2"; "{\"a\" 1}" ]

let test_json_parse_bench_results () =
  (* The real benchmark results format: baseline lookup end to end. *)
  let doc =
    J.obj
      [ ("schema", J.string "ammboost-bench/1");
        ("micro_ns",
         J.obj [ ("ammboost/u256 mul_div", J.value (J.Float 1349.9)) ]) ]
  in
  match J.parse doc with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v ->
    (match J.member "micro_ns" v with
    | Some (J.Jobject [ (name, J.Jnumber ns) ]) ->
      Alcotest.(check string) "name" "ammboost/u256 mul_div" name;
      Alcotest.(check (float 1e-6)) "ns" 1349.9 ns
    | _ -> Alcotest.fail "micro_ns shape")

(* ------------------------------------------------------------------ *)
(* Property tests: printer/parser roundtrip and quantile accuracy       *)
(* ------------------------------------------------------------------ *)

let prop ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* [Json.float] prints integers exactly and everything else via %.12g,
   so roundtripping can only hold for floats that are fixpoints of the
   printer; one print/parse pass puts any generated number on that
   lattice (and clamps NaN/infinities to finite values, as the emitter
   does). *)
let norm_float f = float_of_string (J.float f)

let gen_json_value =
  let open QCheck2.Gen in
  (* Full char range: exercises the escape table, \u control escapes and
     raw high bytes. *)
  let gen_key = string_size (int_range 0 12) in
  let scalar =
    oneof
      [ return J.Jnull;
        map (fun b -> J.Jbool b) bool;
        map (fun f -> J.Jnumber (norm_float f)) float;
        map
          (fun i -> J.Jnumber (float_of_int i))
          (int_range (-1_000_000_000) 1_000_000_000);
        map (fun s -> J.Jstring s) gen_key ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [ (3, scalar);
               ( 1,
                 map
                   (fun l -> J.Jarray l)
                   (list_size (int_range 0 4) (self (n / 4))) );
               ( 1,
                 map
                   (fun l -> J.Jobject l)
                   (list_size (int_range 0 4) (pair gen_key (self (n / 4)))) ) ])

let json_roundtrip_prop v =
  match J.parse (J.to_string v) with Ok v' -> v' = v | Error _ -> false

let gen_samples = QCheck2.Gen.(list_size (int_range 1 300) (float_range 0.001 1.0e6))

(* The log-bucketed quantile must stay within one bucket (midpoint vs
   extreme at 20/decade is < 6%) of the exact order-statistic; 13% leaves
   margin for boundary ranks. *)
let quantile_vs_exact_prop samples =
  let h = H.create () in
  List.iter (H.observe h) samples;
  let sorted = Array.of_list (List.sort compare samples) in
  let n = Array.length sorted in
  List.for_all
    (fun q ->
      let target = q *. float_of_int n in
      let idx =
        Stdlib.max 0 (Stdlib.min (n - 1) (int_of_float (Float.ceil target) - 1))
      in
      let exact = sorted.(idx) in
      Float.abs (H.quantile h q -. exact) <= 0.13 *. exact)
    [ 0.5; 0.9; 0.99 ]

(* Bucket counts add exactly, so a merged histogram answers quantiles
   identically to one that saw all observations directly. *)
let merged_quantile_prop (xs, ys) =
  let whole = H.create () in
  List.iter (H.observe whole) (xs @ ys);
  let a = H.create () and b = H.create () in
  List.iter (H.observe a) xs;
  List.iter (H.observe b) ys;
  H.merge_into ~into:a b;
  H.count a = H.count whole
  && H.min_value a = H.min_value whole
  && H.max_value a = H.max_value whole
  && List.for_all (fun q -> H.quantile a q = H.quantile whole q) [ 0.5; 0.9; 0.99 ]

let test_quantile_single_observation () =
  let h = H.create () in
  H.observe h 7.3;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "q=%.2f clamps to the single value" q)
        7.3 (H.quantile h q))
    [ 0.01; 0.5; 0.99 ]

(* ------------------------------------------------------------------ *)
(* Histogram merge guards                                              *)
(* ------------------------------------------------------------------ *)

let test_merge_into_empty_guard () =
  (* Merging into an empty histogram must adopt the source extrema, not
     compare against the fresh ±infinity sentinels — a zero-bucket-only
     source is the sharp case, since all its values are <= 0. *)
  let a = H.create () in
  let b = H.create () in
  for _ = 1 to 5 do
    H.observe b (-2.0)
  done;
  H.merge_into ~into:a b;
  Alcotest.(check int) "count" 5 (H.count a);
  Alcotest.(check (float 1e-9)) "min adopted" (-2.0) (H.min_value a);
  Alcotest.(check (float 1e-9)) "max adopted" (-2.0) (H.max_value a);
  Alcotest.(check (float 1e-9)) "p99 clamps into the zero bucket" (-2.0)
    (H.quantile a 0.99);
  (* Merging an empty histogram is the identity. *)
  let p50 = H.quantile a 0.5 in
  H.merge_into ~into:a (H.create ());
  Alcotest.(check int) "empty merge keeps count" 5 (H.count a);
  Alcotest.(check (float 1e-9)) "empty merge keeps min" (-2.0) (H.min_value a);
  Alcotest.(check (float 1e-9)) "empty merge keeps quantiles" p50 (H.quantile a 0.5);
  Alcotest.check_raises "bucket layout mismatch rejected"
    (Invalid_argument "Histogram.merge_into: bucket layouts differ") (fun () ->
      H.merge_into ~into:(H.create ~buckets_per_decade:10 ()) (H.create ()))

(* ------------------------------------------------------------------ *)
(* Time-series metric kind                                             *)
(* ------------------------------------------------------------------ *)

let test_series_points_and_json () =
  let reg = M.create () in
  let s = M.time_series reg "growth.mc.bytes.total" in
  M.push s ~t:0.0 10.0;
  M.push s ~t:1.0 20.0;
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "points come back in push order"
    [ (0.0, 10.0); (1.0, 20.0) ]
    (M.series_points s);
  Alcotest.(check bool) "find_series sees it" true
    (M.find_series reg "growth.mc.bytes.total" <> None);
  Alcotest.(check bool) "find_histogram does not" true
    (M.find_histogram reg "growth.mc.bytes.total" = None);
  match parse_json (String.trim (M.to_json_string reg)) with
  | Obj [ (name, Obj fields) ] ->
    Alcotest.(check string) "name" "growth.mc.bytes.total" name;
    Alcotest.(check bool) "type series" true
      (List.assoc "type" fields = Str "series");
    (match List.assoc "points" fields with
    | Arr [ Arr [ Num 0.0; Num 10.0 ]; Arr [ Num 1.0; Num 20.0 ] ] -> ()
    | _ -> Alcotest.fail "points shape")
  | _ -> Alcotest.fail "snapshot shape"

let test_series_merge_matches_sequential () =
  (* Private sinks merged in submission order must reproduce a
     sequential run's series byte-for-byte — the growth ledger's -j
     determinism rides on this. *)
  let points = [ (0.0, 1.0); (1.0, 2.0); (2.0, 3.0); (3.0, 4.0) ] in
  let seq = M.create () in
  List.iter (fun (t, v) -> M.push (M.time_series seq "g") ~t v) points;
  let a = M.create () and b = M.create () in
  List.iter (fun (t, v) -> M.push (M.time_series a "g") ~t v)
    [ List.nth points 0; List.nth points 1 ];
  List.iter (fun (t, v) -> M.push (M.time_series b "g") ~t v)
    [ List.nth points 2; List.nth points 3 ];
  let merged = M.create () in
  M.merge_into ~into:merged a;
  M.merge_into ~into:merged b;
  Alcotest.(check string) "merged snapshot = sequential snapshot"
    (M.to_json_string seq) (M.to_json_string merged)

let () =
  Alcotest.run "telemetry"
    [ ("histogram",
       [ Alcotest.test_case "uniform quantiles" `Quick test_histogram_uniform;
         Alcotest.test_case "bimodal quantiles" `Quick test_histogram_lognormal_like;
         Alcotest.test_case "edge cases" `Quick test_histogram_edge_cases;
         Alcotest.test_case "single observation" `Quick
           test_quantile_single_observation;
         Alcotest.test_case "merge guards" `Quick test_merge_into_empty_guard;
         prop "quantile tracks exact order statistic" gen_samples
           quantile_vs_exact_prop;
         prop "merged histogram = combined histogram"
           QCheck2.Gen.(pair gen_samples gen_samples)
           merged_quantile_prop ]);
      ("series",
       [ Alcotest.test_case "points and JSON shape" `Quick
           test_series_points_and_json;
         Alcotest.test_case "submission-order merge is sequential" `Quick
           test_series_merge_matches_sequential ]);
      ("metrics",
       [ Alcotest.test_case "snapshot shape" `Quick test_registry_snapshot;
         Alcotest.test_case "deterministic output" `Quick test_registry_deterministic ]);
      ("trace",
       [ Alcotest.test_case "span nesting balance" `Quick test_span_nesting;
         Alcotest.test_case "disabled tracer" `Quick test_disabled_tracer_records_nothing;
         Alcotest.test_case "chrome export well-formed" `Quick
           test_chrome_export_well_formed ]);
      ("json",
       [ Alcotest.test_case "roundtrip" `Quick test_json_parse_roundtrip;
         prop ~count:500 "print/parse roundtrip (property)" gen_json_value
           json_roundtrip_prop;
         Alcotest.test_case "escapes" `Quick test_json_parse_escapes;
         Alcotest.test_case "literals" `Quick test_json_parse_literals;
         Alcotest.test_case "errors rejected" `Quick test_json_parse_errors;
         Alcotest.test_case "bench results shape" `Quick
           test_json_parse_bench_results ]);
      ("system",
       [ Alcotest.test_case "instrumented run deterministic" `Quick
           test_system_metrics_deterministic ]) ]
