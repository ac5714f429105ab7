(* The domain pool: ordering, sequential fallback, failure determinism,
   nesting — and the end-to-end guarantee the bench harness relies on:
   running experiment cells at any domain count produces identical rows
   and an identical merged telemetry snapshot. *)

module E = Ammboost.Experiments
module Config = Ammboost.Config

(* ------------------------------------------------------------------ *)
(* map_list basics                                                     *)
(* ------------------------------------------------------------------ *)

let test_ordering () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "squares in submission order"
    (List.map (fun x -> x * x) xs)
    (Parallel.map_list ~domains:4 (fun x -> x * x) xs)

let test_sequential_fallback () =
  (* domains = 1 must not involve the pool at all: tasks run in the
     calling domain, in order. *)
  let order = ref [] in
  let res =
    Parallel.map_list ~domains:1
      (fun x ->
        order := x :: !order;
        x + 1)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "results" [ 2; 3; 4 ] res;
  Alcotest.(check (list int)) "executed in list order" [ 3; 2; 1 ] !order

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Parallel.map_list ~domains:8 Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ]
    (Parallel.map_list ~domains:8 (fun x -> x + 1) [ 6 ])

exception Boom of int

let test_exception_lowest_index () =
  (* Several tasks fail; the re-raised exception is the lowest-index one
     at every domain count, so failures are deterministic too. *)
  List.iter
    (fun domains ->
      match
        Parallel.map_list ~domains
          (fun x -> if x mod 3 = 2 then raise (Boom x) else x)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "lowest failing index at %d domains" domains)
          2 i)
    [ 1; 2; 4; 8 ]

let test_nesting () =
  (* A task that fans out its own batch: the waiting domain helps, so
     this completes even when the pool is saturated. *)
  let res =
    Parallel.map_list ~domains:4
      (fun row ->
        Parallel.map_list ~domains:4 (fun col -> (row * 10) + col) [ 0; 1; 2 ])
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list (list int)))
    "nested results ordered"
    [ [ 0; 1; 2 ]; [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ] ]
    res

let test_run_pair () =
  let a, b = Parallel.run_pair ~domains:2 (fun () -> 6 * 7) (fun () -> "ok") in
  Alcotest.(check int) "first" 42 a;
  Alcotest.(check string) "second" "ok" b

(* ------------------------------------------------------------------ *)
(* Experiment determinism across domain counts                         *)
(* ------------------------------------------------------------------ *)

let small_cfg seed_suffix =
  { Config.default with
    Config.seed = Config.default.Config.seed ^ seed_suffix;
    epochs = 2;
    sc_rounds_per_epoch = 6;
    daily_volume = 20_000;
    users = 20;
    miners = 50;
    committee_size = 10;
    max_faulty = 3 }

let table =
  { E.title = "four small cells";
    col_header = "cell";
    cells =
      List.map
        (fun i -> E.cell ~label:(Printf.sprintf "cell%d" i) (small_cfg (string_of_int i)))
        [ 0; 1; 2; 3 ];
    verdicts = [] }

let run_at ~domains =
  let sink = Telemetry.Report.sink () in
  let rows, _ = E.run_table ~sink ~domains table in
  (rows, Telemetry.Metrics.to_json_string sink.Telemetry.Report.metrics)

let test_run_cells_deterministic () =
  let rows1, json1 = run_at ~domains:1 in
  let rows4, json4 = run_at ~domains:4 in
  List.iter2
    (fun (r1 : E.perf_row) (r4 : E.perf_row) ->
      Alcotest.(check string) "label" r1.E.row_label r4.E.row_label;
      Alcotest.(check (float 0.0)) "throughput" r1.E.throughput r4.E.throughput;
      Alcotest.(check (float 0.0)) "sc latency" r1.E.sc_latency r4.E.sc_latency;
      Alcotest.(check (float 0.0)) "payout latency" r1.E.payout_latency
        r4.E.payout_latency)
    rows1 rows4;
  Alcotest.(check int) "row count" (List.length rows1) (List.length rows4);
  Alcotest.(check string) "merged metrics snapshot" json1 json4

let () =
  Alcotest.run "parallel"
    [ ( "map_list",
        [ Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "sequential fallback" `Quick test_sequential_fallback;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "lowest-index exception" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "run_pair" `Quick test_run_pair ] );
      ( "experiments",
        [ Alcotest.test_case "run_cells deterministic across domains" `Quick
            test_run_cells_deterministic ] ) ]
