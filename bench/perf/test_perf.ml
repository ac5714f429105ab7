(* Self-test of the benchmark: the sampler's layer attribution, the
   compare verdicts, the results JSON, and that every workload (scaled
   down) is deterministic, so a fingerprint check can mean something. *)

open Perf_bench
module Json = Telemetry.Json

(* CPU-bound for [d] seconds of process time. *)
let[@inline never] spin d =
  let until = Sys.time () +. d in
  let x = ref 0.0 in
  while Sys.time () < until do
    x := Sys.opaque_identity (!x +. sqrt 2.0)
  done

(* Neither calls [spin] in tail position, so both stay on the stack. *)
let[@inline never] spin_inner () =
  spin 0.15;
  ignore (Sys.opaque_identity ())

let[@inline never] spin_outer () =
  spin_inner ();
  spin 0.15;
  ignore (Sys.opaque_identity ())

let test_sampler_layers () =
  let map =
    [ ("Dune__exe__Test_perf.spin_inner", "inner");
      ("Dune__exe__Test_perf.spin_outer", "outer") ]
  in
  let start_words = Gc.minor_words () in
  Sampler.start ();
  spin_outer ();
  let p = Sampler.attribute ~map ~start_words (Sampler.stop ()) in
  let s l = List.assoc l p.Sampler.layers in
  let total = float_of_int p.Sampler.total in
  Alcotest.(check bool) "enough samples" true (p.Sampler.total >= 20);
  Alcotest.(check int) "self counts sum to the samples" p.Sampler.total
    (List.fold_left (fun acc (_, st) -> acc + st.Sampler.self) 0 p.Sampler.layers);
  let share l f = float_of_int (f (s l)) /. total in
  Alcotest.(check bool) "outer is on (almost) every stack" true
    (share "outer" (fun st -> st.Sampler.incl) > 0.9);
  Alcotest.(check bool) "inner gets about half the self time" true
    (Float.abs (share "inner" (fun st -> st.Sampler.self) -. 0.5) < 0.2);
  Alcotest.(check bool) "outer gets about half the self time" true
    (Float.abs (share "outer" (fun st -> st.Sampler.self) -. 0.5) < 0.2);
  Alcotest.(check bool) "inner incl = inner self" true
    ((s "inner").Sampler.incl = (s "inner").Sampler.self)

(* A fresh directory under the test's working directory, removed after
   [f] returns. *)
let with_dir name f =
  let d = "perf-test-" ^ name in
  Measure.clear_dir d;
  Fun.protect ~finally:(fun () -> Measure.rm_rf d) (fun () -> f d)

let test_system_glue_small () =
  let w = Workloads.swap_flood in
  let o =
    with_dir "glue" (fun dir ->
        Json.Jobject
          (Measure.run_once ~mode:Measure.Traced ~w
             ~cfg:(w.Workloads.shrink w.Workloads.cfg) ~dir ()))
  in
  let samples = Measure.get [ "samples" ] o in
  Alcotest.(check bool) "sampled" true (samples >= 20.0);
  Alcotest.(check bool) "system self share under 10%" true
    (Measure.get [ "layers"; Sampler.system; "self" ] o /. samples < 0.1)

let test_quartiles () =
  (* Python: statistics.quantiles([1, 2, 3, 4, 5], n=4) = [1.5, 3.0, 4.5] *)
  let q1, q3 = Gate.quartiles [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.(check (float 1e-12)) "q1" 1.5 q1;
  Alcotest.(check (float 1e-12)) "q3" 4.5 q3;
  Alcotest.(check (float 1e-12)) "median" 3.0 (Gate.median [ 5.; 1.; 4.; 2.; 3. ])

let test_verdicts () =
  let v ?(better = Gate.Lower) a b =
    Gate.verdict_name (Gate.verdict ~better ~bound:0.1 (Gate.side a) (Gate.side b))
  in
  let a = [ 10.0; 10.1; 9.9; 10.05; 9.95 ] in
  Alcotest.(check string) "clear win" "better" (v a [ 8.0; 8.1; 7.9; 8.05; 7.95 ]);
  Alcotest.(check string) "clear loss" "worse" (v a [ 12.0; 12.1; 11.9; 12.05; 11.95 ]);
  Alcotest.(check string) "noise" "unresolved"
    (v [ 10.; 14.; 7.; 12.; 9. ] [ 9.; 13.; 8.; 11.; 10. ]);
  Alcotest.(check string) "same" "same" (v a [ 10.02; 10.08; 9.92; 10.0; 9.97 ]);
  Alcotest.(check string) "higher is better" "better"
    (v ~better:Gate.Higher a [ 12.0; 12.1; 11.9; 12.05; 11.95 ])

let test_results_roundtrip () =
  let o =
    { Measure.name = "swap-flood"; seed = "ammboost-t1/3"; attempted = 9;
      errors = [ "timed: \"quoted\"" ]; fingerprint = "generated=1 processed=1";
      ops_failed_frac = 0.00172709914509;
      metrics =
        [ { Measure.name = "wall_s"; unit_ = "s"; value = 3.50132203102 };
          { Measure.name = "sim_tx_per_s"; unit_ = "tx/s"; value = 29714.7760412 } ] }
  in
  let text = Measure.results_json ~trace:false [ o ] in
  match Json.parse text with
  | Error e -> Alcotest.fail e
  | Ok v ->
    Alcotest.(check string) "printed back identically" text (Json.to_string v);
    let w =
      match Json.member "workloads" v with
      | Some (Json.Jarray [ w ]) -> w
      | _ -> Alcotest.fail "workloads"
    in
    Alcotest.(check (float 0.0)) "metric value" 3.50132203102
      (Measure.get [ "metrics"; "wall_s"; "value" ] w);
    Alcotest.(check bool) "errors survive" true
      (Json.member "errors" w = Some (Json.Jarray [ Json.Jstring "timed: \"quoted\"" ]));
    match Json.parse (Measure.result_line o) with
    | Ok (Json.Jobject fields) ->
      Alcotest.(check (list string)) "result line keys"
        [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst fields)
    | _ -> Alcotest.fail "result line"

let test_deterministic (w : Workloads.t) () =
  let cfg = w.Workloads.shrink w.Workloads.cfg in
  with_dir w.Workloads.name @@ fun dir ->
  let fp mode =
    let o = Json.Jobject (Measure.run_once ~mode ~w ~cfg ~dir ()) in
    Alcotest.(check bool) "invariants hold" true
      (Json.member "error" o = Some Json.Jnull);
    match Json.member "fingerprint" o with
    | Some (Json.Jstring s) -> s
    | _ -> Alcotest.fail "no fingerprint"
  in
  let first = fp Measure.Timed in
  Alcotest.(check string) "same fingerprint twice" first (fp Measure.Timed);
  if w.Workloads.durable then
    Alcotest.(check string) "recovery reproduces it" first (fp Measure.Recover)

let () =
  Alcotest.run "perf"
    [ ("sampler",
       [ Alcotest.test_case "busy loop charged to its layer" `Quick test_sampler_layers;
         Alcotest.test_case "small run has little glue" `Quick test_system_glue_small ]);
      ("compare",
       [ Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
         Alcotest.test_case "verdicts" `Quick test_verdicts ]);
      ("results", [ Alcotest.test_case "json round trip" `Quick test_results_roundtrip ]);
      ("workloads",
       List.map
         (fun w ->
           Alcotest.test_case (w.Workloads.name ^ " deterministic") `Quick
             (test_deterministic w))
         Workloads.all) ]
