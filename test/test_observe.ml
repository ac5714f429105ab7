(* State-growth observatory: ledger JSON roundtrip and metric mirroring,
   growth-guard verdicts (pass, regression, absolute floor, missing
   epochs/keys), deterministic lifecycle sampling and stage flow, report
   rendering, and the ledger invariants of an instrumented System run. *)

module GL = Observe.Growth_ledger
module GG = Observe.Growth_guard
module LC = Observe.Lifecycle
module RR = Observe.Run_report
module M = Telemetry.Metrics
module H = Telemetry.Histogram

let mk_ledger entries =
  let l = GL.create () in
  List.iter (fun (e, t, fields) -> GL.sample l ~epoch:e ~t fields) entries;
  l

let contains hay needle =
  let ln = String.length needle and lh = String.length hay in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let check_contains md needle =
  Alcotest.(check bool) (Printf.sprintf "report contains %S" needle) true
    (contains md needle)

(* ------------------------------------------------------------------ *)
(* Growth ledger                                                       *)
(* ------------------------------------------------------------------ *)

let test_ledger_json_roundtrip () =
  let l =
    mk_ledger
      [ (0, 0.0, [ ("mc.bytes.total", 100.0); ("bank.storage_words", 22.0) ]);
        (1, 60.0, [ ("mc.bytes.total", 180.0); ("bank.storage_words", 22.0) ]) ]
  in
  let json = GL.to_json l in
  match GL.of_json json with
  | Error e -> Alcotest.fail e
  | Ok l' ->
    Alcotest.(check string) "roundtrip is byte-identical" json (GL.to_json l');
    Alcotest.(check int) "epochs" 2 (GL.epochs_sampled l');
    Alcotest.(check (list string)) "keys"
      [ "bank.storage_words"; "mc.bytes.total" ]
      (GL.keys l');
    Alcotest.(check (list (pair int (float 1e-9)))) "series"
      [ (0, 100.0); (1, 180.0) ]
      (GL.series l' "mc.bytes.total")

let test_ledger_of_json_rejects () =
  List.iter
    (fun bad ->
      match GL.of_json bad with
      | Ok _ -> Alcotest.failf "%S should not parse as a ledger" bad
      | Error _ -> ())
    [ "";
      "{}";
      "{\"schema\": \"something-else/9\", \"epochs\": []}";
      "{\"schema\": \"ammboost-observe/1\"}";
      "{\"schema\": \"ammboost-observe/1\", \"epochs\": [{\"t\": 0}]}" ]

let test_ledger_metrics_mirror () =
  let reg = M.create () in
  let l = GL.create ~metrics:reg () in
  GL.sample l ~epoch:0 ~t:0.0 [ ("b", 2.0); ("a", 1.0) ];
  GL.sample l ~epoch:1 ~t:60.0 [ ("a", 3.0) ];
  (match GL.rows l with
  | [ r0; _ ] ->
    Alcotest.(check (list (pair string (float 1e-9)))) "fields sorted at sample"
      [ ("a", 1.0); ("b", 2.0) ]
      r0.GL.ge_fields
  | _ -> Alcotest.fail "expected two rows");
  match M.find_series reg "growth.a" with
  | Some s ->
    Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
      "mirrored as a time series keyed by epoch"
      [ (0.0, 1.0); (1.0, 3.0) ]
      (M.series_points s)
  | None -> Alcotest.fail "growth.a series missing from the registry"

(* ------------------------------------------------------------------ *)
(* Growth guard                                                        *)
(* ------------------------------------------------------------------ *)

let guard_baseline () =
  mk_ledger
    [ (0, 0.0, [ ("mc.bytes.total", 10_000.0); ("bank.storage_words", 22.0) ]);
      (1, 60.0, [ ("mc.bytes.total", 20_000.0); ("bank.storage_words", 22.0) ]) ]

let test_guard_pass_and_shrink () =
  let b = guard_baseline () in
  let v = GG.compare_ledgers ~baseline:b ~fresh:b () in
  Alcotest.(check bool) "identical ledgers pass" true (GG.ok v);
  Alcotest.(check int) "all pairs checked" 4 v.GG.checked;
  (* Shrinking is the point of the paper: always fine. *)
  let smaller =
    mk_ledger
      [ (0, 0.0, [ ("mc.bytes.total", 5_000.0); ("bank.storage_words", 10.0) ]);
        (1, 60.0, [ ("mc.bytes.total", 9_000.0); ("bank.storage_words", 10.0) ]) ]
  in
  Alcotest.(check bool) "shrinking passes" true
    (GG.ok (GG.compare_ledgers ~baseline:b ~fresh:smaller ()))

let test_guard_regression () =
  let b = guard_baseline () in
  let fresh =
    mk_ledger
      [ (0, 0.0, [ ("mc.bytes.total", 10_050.0); ("bank.storage_words", 22.0) ]);
        (1, 60.0, [ ("mc.bytes.total", 21_000.0); ("bank.storage_words", 22.0) ]) ]
  in
  (* Epoch 0 is within 1%, epoch 1 is 5% over: exactly one violation. *)
  let v = GG.compare_ledgers ~baseline:b ~fresh () in
  Alcotest.(check int) "one violation" 1 (List.length v.GG.violations);
  Alcotest.(check bool) "names the epoch and key" true
    (contains (List.hd v.GG.violations) "epoch 1 mc.bytes.total");
  (* A looser tolerance absorbs it. *)
  Alcotest.(check bool) "10% tolerance passes" true
    (GG.ok (GG.compare_ledgers ~tolerance:0.10 ~baseline:b ~fresh ()))

let test_guard_absolute_floor () =
  let b = mk_ledger [ (0, 0.0, [ ("bank.storage_words", 22.0) ]) ] in
  let ok_fresh = mk_ledger [ (0, 0.0, [ ("bank.storage_words", 80.0) ]) ] in
  (* 22 -> 80 is a 260% jump but within the 64-unit absolute floor. *)
  Alcotest.(check bool) "small series compare absolutely" true
    (GG.ok (GG.compare_ledgers ~baseline:b ~fresh:ok_fresh ()));
  let bad_fresh = mk_ledger [ (0, 0.0, [ ("bank.storage_words", 100.0) ]) ] in
  Alcotest.(check bool) "past the floor fails" false
    (GG.ok (GG.compare_ledgers ~baseline:b ~fresh:bad_fresh ()))

let test_guard_missing () =
  let b = guard_baseline () in
  let missing_epoch =
    mk_ledger [ (0, 0.0, [ ("mc.bytes.total", 10_000.0); ("bank.storage_words", 22.0) ]) ]
  in
  Alcotest.(check bool) "missing epoch is a violation" false
    (GG.ok (GG.compare_ledgers ~baseline:b ~fresh:missing_epoch ()));
  let missing_key =
    mk_ledger
      [ (0, 0.0, [ ("mc.bytes.total", 10_000.0) ]);
        (1, 60.0, [ ("mc.bytes.total", 20_000.0) ]) ]
  in
  Alcotest.(check bool) "missing key is a violation" false
    (GG.ok (GG.compare_ledgers ~baseline:b ~fresh:missing_key ()));
  let empty = GL.create () in
  Alcotest.(check bool) "empty fresh run is a violation" false
    (GG.ok (GG.compare_ledgers ~baseline:b ~fresh:empty ()))

let test_guard_json_entrypoint () =
  let b = guard_baseline () in
  (match
     GG.compare_json ~baseline:(GL.to_json b) ~fresh:(GL.to_json b) ()
   with
  | Ok v -> Alcotest.(check bool) "json comparison passes" true (GG.ok v)
  | Error e -> Alcotest.fail e);
  match GG.compare_json ~baseline:"{]" ~fresh:(GL.to_json b) () with
  | Ok _ -> Alcotest.fail "bad baseline JSON must be an error"
  | Error e -> Alcotest.(check bool) "error names the side" true (contains e "baseline")

(* ------------------------------------------------------------------ *)
(* Lifecycle tracer                                                    *)
(* ------------------------------------------------------------------ *)

let tx_ids = List.init 400 (fun i -> Bytes.of_string (Printf.sprintf "tx-%05d" i))

let test_lifecycle_sampling_deterministic () =
  let decisions seed =
    let t = LC.create ~metrics:(M.create ()) ~seed () in
    List.map (fun id -> LC.keeps t ~id) tx_ids
  in
  Alcotest.(check (list bool)) "same seed, same decisions" (decisions "obs-a")
    (decisions "obs-a");
  Alcotest.(check bool) "different seed, different decisions" false
    (decisions "obs-a" = decisions "obs-b");
  let kept = List.length (List.filter Fun.id (decisions "obs-a")) in
  (* 1-in-8 sampling over 400 ids: expect ~50, allow a wide band. *)
  Alcotest.(check bool)
    (Printf.sprintf "sampling rate plausible (%d of 400)" kept)
    true
    (kept >= 15 && kept <= 110)

let test_lifecycle_stage_flow () =
  let reg = M.create () in
  let t = LC.create ~metrics:reg ~seed:"flow" () in
  List.iteri
    (fun i id ->
      LC.on_included t ~id ~cls:"swap" ~issued_at:(float_of_int i) ~wire:100
        ~epoch:0
        ~at:(float_of_int i +. 1.0))
    tx_ids;
  let sampled = LC.sampled_count t in
  Alcotest.(check int) "all included ops counted" 400 (LC.seen_count t);
  Alcotest.(check bool) "sampler kept some" true (sampled > 0);
  Alcotest.(check (list string)) "live classes" [ "swap" ] (LC.live_classes t);
  LC.on_stage t ~epoch:0 ~stage:LC.Summarized ~at:1000.0;
  LC.on_submitted t ~epoch:0 ~at:2000.0 ~l1_bytes:8000;
  LC.on_stage t ~epoch:0 ~stage:LC.Confirmed ~at:3000.0;
  let hist_count name =
    match M.find_histogram reg name with Some h -> H.count h | None -> 0
  in
  List.iter
    (fun stage ->
      Alcotest.(check int)
        (Printf.sprintf "lifecycle.swap.%s has one observation per sampled op"
           stage)
        sampled
        (hist_count ("lifecycle.swap." ^ stage)))
    [ "included"; "summarized"; "submitted"; "confirmed"; "amplification" ];
  (* Amplification: 8000 L1 bytes over 400 included ops = 20 B/op,
     against a 100 B wire size -> 0.2 for every sampled op. *)
  (match M.find_histogram reg "lifecycle.swap.amplification" with
  | Some h -> Alcotest.(check (float 1e-9)) "amplification value" 0.2 (H.mean h)
  | None -> Alcotest.fail "amplification histogram missing");
  LC.on_stage t ~epoch:0 ~stage:LC.Pruned ~at:4000.0;
  Alcotest.(check (list string)) "records dropped at prune" [] (LC.live_classes t);
  (* Stage events after the prune are no-ops for that epoch. *)
  LC.on_stage t ~epoch:0 ~stage:LC.Confirmed ~at:5000.0;
  Alcotest.(check int) "no new observations after prune" sampled
    (hist_count "lifecycle.swap.confirmed")

let test_lifecycle_shift_bounds () =
  let mk shift () =
    ignore (LC.create ~sample_shift:shift ~metrics:(M.create ()) ~seed:"x" ())
  in
  Alcotest.check_raises "negative shift" (Invalid_argument "Lifecycle.create")
    (mk (-1));
  Alcotest.check_raises "oversized shift" (Invalid_argument "Lifecycle.create")
    (mk 21);
  (* shift 0 keeps everything. *)
  let t = LC.create ~sample_shift:0 ~metrics:(M.create ()) ~seed:"x" () in
  Alcotest.(check bool) "shift 0 keeps all" true
    (List.for_all (fun id -> LC.keeps t ~id) tx_ids)

(* The sampler's FNV-1a as a 64-bit fold through [Int64], byte by byte:
   the reference the native-int fold must agree with. *)
let fnv1a_int64 h s =
  let h = ref h in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

(* Every sampling decision, and the hash's low 63 bits, match the Int64
   reference over random ids, seeds and shifts. *)
let lifecycle_fold_prop =
  let gen =
    QCheck2.Gen.(
      triple (string_size (int_range 0 64)) (string_size (int_range 0 24)) (int_range 0 20))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"native fold = Int64 reference" gen
       (fun (id, seed, shift) ->
         let reference = fnv1a_int64 (fnv1a_int64 0xcbf29ce484222325L seed) id in
         let t = LC.create ~sample_shift:shift ~metrics:(M.create ()) ~seed () in
         let native =
           LC.fnv1a_fold (LC.fnv1a_fold LC.fnv_offset (Bytes.of_string seed))
             (Bytes.of_string id)
         in
         native = Int64.to_int reference
         && LC.keeps t ~id:(Bytes.of_string id)
            = (Int64.to_int reference land ((1 lsl shift) - 1) = 0)))

(* ------------------------------------------------------------------ *)
(* Run report                                                          *)
(* ------------------------------------------------------------------ *)

let test_report_renders () =
  let ledger =
    mk_ledger
      [ (0, 0.0,
         [ ("mc.bytes.total", 100.0); ("baseline.bytes.sepolia", 400.0) ]);
        (1, 60.0,
         [ ("mc.bytes.total", 200.0); ("baseline.bytes.sepolia", 900.0) ]) ]
  in
  let reg = M.create () in
  M.observe reg "lifecycle.swap.included" 1.5;
  M.observe reg "lifecycle.swap.amplification" 0.3;
  let md =
    RR.render ~title:"test run" ~params:[ ("seed", "x") ]
      ~summary:[ ("processed", "9") ] ~ledger ~metrics:reg
      ~events:[ { RR.ev_t = 5.0; ev_kind = "mode"; ev_detail = "degraded" } ]
      ()
  in
  List.iter (check_contains md)
    [ "# test run"; "## Run summary"; "## State growth by epoch";
      "mc.bytes.total"; "## Transaction lifecycle"; "## Bytes amplification";
      "## Event timeline"; "degraded"; "% reduction" ];
  (* 200 of 900 counterfactual bytes = 77.78% reduction. *)
  check_contains md "77.78% reduction";
  (* Rendering twice is byte-identical (pure function of its inputs). *)
  let md2 =
    RR.render ~title:"test run" ~params:[ ("seed", "x") ]
      ~summary:[ ("processed", "9") ] ~ledger ~metrics:reg
      ~events:[ { RR.ev_t = 5.0; ev_kind = "mode"; ev_detail = "degraded" } ]
      ()
  in
  Alcotest.(check string) "deterministic render" md md2

let test_report_empty_ledger () =
  let md =
    RR.render ~title:"empty" ~params:[] ~summary:[] ~ledger:(GL.create ()) ()
  in
  check_contains md "_no epochs sampled_"

let test_report_explicit_counterfactual () =
  let ledger = mk_ledger [ (0, 0.0, [ ("mc.bytes.total", 100.0) ]) ] in
  let md =
    RR.render ~title:"cf" ~params:[] ~summary:[] ~ledger
      ~counterfactual:("baseline.measured.bytes", [ (0, 1000.0) ])
      ()
  in
  check_contains md "baseline.measured.bytes";
  check_contains md "90.00% reduction"

(* ------------------------------------------------------------------ *)
(* End-to-end: the System run's ledger                                 *)
(* ------------------------------------------------------------------ *)

let small_cfg =
  let open Ammboost in
  { Config.default with
    epochs = 2; daily_volume = 20_000; users = 12; miners = 30;
    committee_size = 10; max_faulty = 2; seed = "observe-e2e" }

let test_system_growth_ledger () =
  let open Ammboost in
  let r = System.run small_cfg in
  let sink = r.System.telemetry in
  let l = r.System.growth in
  Alcotest.(check bool)
    (Printf.sprintf "sampled at least one row per epoch (%d)" (GL.epochs_sampled l))
    true
    (GL.epochs_sampled l > small_cfg.Ammboost.Config.epochs);
  (* Cumulative byte series never shrink. *)
  List.iter
    (fun key ->
      let vs = List.map snd (GL.series l key) in
      Alcotest.(check bool) (key ^ " present") true (vs <> []);
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) (key ^ " monotone") true (monotone vs))
    [ "mc.bytes.total"; "mc.gas.total"; "sc.cumulative_bytes";
      "baseline.bytes.sepolia" ];
  (* The counterfactual accumulated something. (It only dominates
     ammBoost's own growth at realistic volumes, where per-op bytes
     outweigh the fixed deposit/sync overhead — the bench observe run
     covers that; this config is deliberately tiny.) *)
  let last key =
    match List.rev (GL.series l key) with (_, v) :: _ -> v | [] -> 0.0
  in
  Alcotest.(check bool) "counterfactual accumulated" true
    (last "baseline.bytes.sepolia" > 0.0);
  Alcotest.(check bool) "lifecycle saw ops" true (r.System.lifecycle_seen > 0);
  Alcotest.(check bool) "sampled <= seen" true
    (r.System.lifecycle_sampled <= r.System.lifecycle_seen);
  (* Mirrored into the sink, and self-comparison passes the guard. *)
  Alcotest.(check bool) "growth series mirrored into the sink" true
    (M.find_series sink.Telemetry.Report.metrics "growth.mc.bytes.total" <> None);
  Alcotest.(check bool) "ledger passes the guard against itself" true
    (GG.ok (GG.compare_ledgers ~baseline:l ~fresh:l ()))

let test_system_ledger_deterministic () =
  let open Ammboost in
  let run () = GL.to_json (System.run small_cfg).System.growth in
  Alcotest.(check string) "ledger JSON byte-identical across runs" (run ())
    (run ())

let () =
  Alcotest.run "observe"
    [ ("ledger",
       [ Alcotest.test_case "json roundtrip" `Quick test_ledger_json_roundtrip;
         Alcotest.test_case "bad json rejected" `Quick test_ledger_of_json_rejects;
         Alcotest.test_case "metrics mirror" `Quick test_ledger_metrics_mirror ]);
      ("guard",
       [ Alcotest.test_case "pass and shrink" `Quick test_guard_pass_and_shrink;
         Alcotest.test_case "regression caught" `Quick test_guard_regression;
         Alcotest.test_case "absolute floor" `Quick test_guard_absolute_floor;
         Alcotest.test_case "missing data" `Quick test_guard_missing;
         Alcotest.test_case "json entrypoint" `Quick test_guard_json_entrypoint ]);
      ("lifecycle",
       [ Alcotest.test_case "deterministic sampling" `Quick
           test_lifecycle_sampling_deterministic;
         Alcotest.test_case "stage flow" `Quick test_lifecycle_stage_flow;
         Alcotest.test_case "shift bounds" `Quick test_lifecycle_shift_bounds;
         lifecycle_fold_prop ]);
      ("report",
       [ Alcotest.test_case "renders all sections" `Quick test_report_renders;
         Alcotest.test_case "empty ledger" `Quick test_report_empty_ledger;
         Alcotest.test_case "explicit counterfactual" `Quick
           test_report_explicit_counterfactual ]);
      ("system",
       [ Alcotest.test_case "growth ledger invariants" `Quick
           test_system_growth_ledger;
         Alcotest.test_case "ledger deterministic" `Quick
           test_system_ledger_deterministic ]) ]
