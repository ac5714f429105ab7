(* One checker per property. The monitor's safety audit (lib/monitor):
   clean audits over a consistent bank+pool view, fatal detection of
   broken conservation and solvency, and the cumulative totals feeding
   the telemetry counters. The TokenBank alone judges quorum
   certificates: a gapped or forged chain is rejected at sync with the
   bank untouched. The watchdog (Ammboost.Watchdog) alone grades
   liveness and decides the operating mode, as pure functions tested
   here without a run. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Erc20 = Mainchain.Erc20
module Bls = Amm_crypto.Bls
module Q96 = Amm_math.Q96
module Watchdog = Ammboost.Watchdog
module Config = Ammboost.Config
open Tokenbank

let u = U256.of_string
let one_e18 = u "1000000000000000000"
let one_e21 = u "1000000000000000000000"
let alice = Address.of_label "alice"

type env = {
  bank : Token_bank.t;
  erc0 : Erc20.t;
  pool : Uniswap.Pool.t;
  keys : (Bls.secret_key * Bls.public_key) array; (* per epoch *)
  pool_id : int;
  sink : Telemetry.Report.sink;
  mon : Monitor.t;
}

let make_env () =
  let rng = Amm_crypto.Rng.create "monitor-tests" in
  let erc0 = Erc20.deploy (Chain.Token.make ~id:0 ~symbol:"TKA") in
  let erc1 = Erc20.deploy (Chain.Token.make ~id:1 ~symbol:"TKB") in
  let keys = Array.init 8 (fun _ -> Bls.keygen rng) in
  let bank =
    Token_bank.deploy ~token0:erc0 ~token1:erc1 ~genesis_committee_vk:(snd keys.(0))
  in
  let pool_id = Token_bank.create_pool bank ~flash_fee_pips:3000 in
  Erc20.mint erc0 alice one_e21;
  Erc20.mint erc1 alice one_e21;
  Erc20.approve erc0 ~owner:alice ~spender:(Token_bank.address bank) U256.max_value;
  Erc20.approve erc1 ~owner:alice ~spender:(Token_bank.address bank) U256.max_value;
  let pool =
    Uniswap.Pool.create ~pool_id:0
      ~token0:(Chain.Token.make ~id:0 ~symbol:"TKA")
      ~token1:(Chain.Token.make ~id:1 ~symbol:"TKB")
      ~fee_pips:3000 ~tick_spacing:60 ~sqrt_price:Q96.q96
  in
  let sink = Telemetry.Report.sink () in
  { bank; erc0; pool; keys; pool_id; sink; mon = Monitor.create sink }

let payload ?(users = []) env ~epoch ~balance0 ~balance1 =
  { Sync_payload.epoch; pool = env.pool_id; pool_balance0 = balance0;
    pool_balance1 = balance1; users; positions = [];
    next_committee_vk = snd env.keys.(epoch + 1) }

let sign env ~epoch p = Bls.sign (fst env.keys.(epoch)) (Sync_payload.signing_bytes p)

let audit ?(epoch = 1) ?(horizon = 0) env =
  Monitor.audit env.mon ~epoch ~now:0.0 ~bank:env.bank ~pool:env.pool
    ~deposit_horizon:horizon

(* What the watchdog sees at the boundary of [epoch] over this bank. *)
let observe ?(epoch = 1) ?(last_summary = 0) ?(retry = 0) ?(live = true) env =
  { Watchdog.epoch; last_summary_epoch = last_summary;
    last_synced_epoch = Token_bank.last_synced_epoch env.bank; retry_attempt = retry;
    committee_live = live }

let findings ?(streak = 0) obs =
  Watchdog.findings Config.default_watchdog
    { Watchdog.initial with Watchdog.signing_streak = streak } obs

(* Apply a clean epoch-0 sync so the bank sits at the steady-state
   frontier: deposit recorded, pool credited, synced through 0. *)
let settle_epoch0 env =
  (match
     Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18
       ~amount1:U256.zero
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let p =
    payload env ~epoch:0 ~balance0:one_e18 ~balance1:U256.zero
      ~users:[ { Sync_payload.user = alice; payin0 = one_e18; payin1 = U256.zero;
                 payout0 = U256.zero; payout1 = U256.zero } ]
  in
  ignore (Token_bank.sync_exn env.bank ~signed:[ (p, sign env ~epoch:0 p) ])

let ids = List.map (fun x -> x.Monitor.v_check)
let checks_of r = ids r.Monitor.r_violations
let severities = List.map (fun x -> x.Monitor.v_severity)

let test_clean_audit () =
  let env = make_env () in
  settle_epoch0 env;
  let r = audit env ~epoch:1 in
  Alcotest.(check (list string)) "no violations" [] (checks_of r);
  Alcotest.(check bool) "not fatal" false (Monitor.has_fatal r);
  Alcotest.(check int) "audit counted" 1 (Monitor.audits_run env.mon);
  Alcotest.(check bool) "no totals" true (Monitor.violation_totals env.mon = [])

let test_custody_violation_is_fatal () =
  let env = make_env () in
  settle_epoch0 env;
  (* Tokens appear in custody that no deposit or pool reserve explains. *)
  Erc20.mint env.erc0 (Token_bank.address env.bank) one_e18;
  let r = audit env ~epoch:1 in
  Alcotest.(check bool) "fatal" true (Monitor.has_fatal r);
  Alcotest.(check (list string)) "conservation check fires"
    [ "custody-conservation" ] (checks_of r)

let test_liveness_grades_by_lag () =
  let env = make_env () in
  (* Bank never synced: applied lag grows with the summary frontier.
     Defaults: warning at lag 2, degraded at lag 3 (sync lag is shifted
     by one epoch of pipeline depth). *)
  let warn = findings (observe env ~epoch:3 ~last_summary:2) in
  Alcotest.(check (list string)) "warning fires" [ "sync-liveness" ] (ids warn);
  Alcotest.(check bool) "warning severity" true (severities warn = [ Monitor.Warning ]);
  let deg = findings (observe env ~epoch:4 ~last_summary:3) in
  Alcotest.(check bool) "degraded severity" true (severities deg = [ Monitor.Degraded ]);
  Alcotest.(check (list string)) "detail"
    [ "sync application lag 3 epochs" ]
    (List.map (fun v -> v.Monitor.v_detail) deg);
  (* Stalled summary production trips the sidechain-side check too. *)
  let stalled = findings (observe env ~epoch:4 ~last_summary:(-1)) in
  Alcotest.(check bool) "summary liveness fires" true
    (List.mem "summary-liveness" (ids stalled))

let test_committee_dead_skips_liveness () =
  let env = make_env () in
  (* Same stalled state, dead committee: the liveness lags are
     meaningless, so the watchdog grades nothing, and the monitor's
     safety audit still runs — and passes. *)
  Alcotest.(check (list string)) "no findings" []
    (ids (findings ~streak:9 (observe env ~epoch:4 ~last_summary:(-1) ~live:false)));
  Alcotest.(check (list string)) "safety audit clean" [] (checks_of (audit env ~epoch:4))

let test_signing_streak_thresholds () =
  let env = make_env () in
  settle_epoch0 env;
  let w = findings ~streak:1 (observe env ~epoch:1 ~last_summary:0) in
  Alcotest.(check bool) "streak 1 warns" true (severities w = [ Monitor.Warning ]);
  let d = findings ~streak:4 (observe env ~epoch:1 ~last_summary:0) in
  Alcotest.(check bool) "streak 4 degrades" true (severities d = [ Monitor.Degraded ]);
  Alcotest.(check (list string)) "same check id" [ "degraded-signing" ] (ids d)

(* The TokenBank is the certificate chain's only checker: a gapped or
   forged chain is rejected at sync, and the bank is left as it was. *)
let test_certificate_chain_validated () =
  let env = make_env () in
  let p0 = payload env ~epoch:0 ~balance0:U256.zero ~balance1:U256.zero in
  let p1 = payload env ~epoch:1 ~balance0:U256.zero ~balance1:U256.zero in
  let before = Durable.State_codec.bank_meta_bytes env.bank in
  let rejected what signed expected =
    (match Token_bank.sync env.bank ~signed with
    | Ok _ -> Alcotest.failf "%s applied" what
    | Error r ->
      Alcotest.(check string) what expected (Token_bank.rejection_class r));
    Alcotest.(check bool) (what ^ ": bank untouched") true
      (Bytes.equal before (Durable.State_codec.bank_meta_bytes env.bank));
    Alcotest.(check int) (what ^ ": frontier") (-1)
      (Token_bank.last_synced_epoch env.bank)
  in
  (* Epoch 0 missing from the chain. *)
  rejected "gap" [ (p1, sign env ~epoch:1 p1) ] "contiguity_gap";
  (* Epoch 1's certificate signed by the wrong committee key. *)
  rejected "forgery" [ (p0, sign env ~epoch:0 p0); (p1, sign env ~epoch:3 p1) ]
    "bad_signature";
  (* The valid chain applies. *)
  ignore
    (Token_bank.sync_exn env.bank
       ~signed:[ (p0, sign env ~epoch:0 p0); (p1, sign env ~epoch:1 p1) ]);
  Alcotest.(check int) "valid chain applies" 1 (Token_bank.last_synced_epoch env.bank)

(* The watchdog's findings enter the same ledger as the audit's, after
   it, as the system records them. *)
let test_totals_accumulate () =
  let env = make_env () in
  settle_epoch0 env;
  let record =
    List.iter (fun (v : Monitor.violation) ->
        Monitor.record_external env.mon ~now:0.0 ~epoch:1 ~severity:v.v_severity
          ~layer:v.v_layer ~check:v.v_check ~detail:v.v_detail)
  in
  ignore (audit env ~epoch:1);
  record (findings ~streak:1 (observe env ~epoch:1 ~last_summary:0));  (* warning *)
  ignore (audit env ~epoch:1);
  record (findings ~streak:5 (observe env ~epoch:1 ~last_summary:0));  (* degraded *)
  Erc20.mint env.erc0 (Token_bank.address env.bank) one_e18;
  ignore (audit env ~epoch:1);                                         (* fatal *)
  Alcotest.(check int) "audits" 3 (Monitor.audits_run env.mon);
  Alcotest.(check (list (pair string int))) "totals sorted, zero-free"
    [ ("degraded", 1); ("fatal", 1); ("warning", 1) ]
    (Monitor.violation_totals env.mon);
  (* The counters land on the sink's registry for the metrics snapshot. *)
  let snapshot =
    Telemetry.Metrics.to_json_string env.sink.Telemetry.Report.metrics
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "metrics exported" true
    (contains snapshot "monitor.audits" && contains snapshot "monitor.violations.fatal")

(* The bank checks a summary's conservation, not its solvency: a signed
   epoch-1 summary whose only position claims 2e18 token0 against a
   1e18 pool applies, and the next audit reports it. *)
let test_pool_solvency_violation () =
  let env = make_env () in
  settle_epoch0 env;
  let p =
    { (payload env ~epoch:1 ~balance0:one_e18 ~balance1:U256.zero) with
      Sync_payload.positions =
        [ { Sync_payload.pos_id =
              Chain.Ids.Position_id.of_hash (Amm_crypto.Sha256.digest_string "solvency");
            owner = alice; lower_tick = -60; upper_tick = 60; liquidity = one_e18;
            amount0 = U256.add one_e18 one_e18; amount1 = U256.zero;
            fees0 = U256.zero; fees1 = U256.zero; deleted = false } ] }
  in
  ignore (Token_bank.sync_exn env.bank ~signed:[ (p, sign env ~epoch:1 p) ]);
  let r = audit env ~epoch:2 in
  Alcotest.(check (list string)) "solvency check fires" [ "pool-solvency" ] (checks_of r);
  Alcotest.(check bool) "fatal" true (Monitor.has_fatal r)

(* ------------------------------------------------------------------ *)
(* The watchdog's decisions, as pure functions of an observation       *)
(* ------------------------------------------------------------------ *)

let clean = { Monitor.r_epoch = 0; r_violations = [] }

let fatal =
  { Monitor.r_epoch = 0;
    r_violations =
      [ { Monitor.v_check = "custody-conservation"; v_layer = Monitor.Tokenbank;
          v_severity = Monitor.Fatal; v_detail = "" } ] }

let action =
  Alcotest.testable
    (fun f -> function
      | Watchdog.Stay -> Format.pp_print_string f "stay"
      | Watchdog.Enter (m, r) -> Format.fprintf f "enter %s (%s)" (Watchdog.mode_name m) r
      | Watchdog.Halt r -> Format.fprintf f "halt (%s)" r
      | Watchdog.Reconcile -> Format.pp_print_string f "reconcile")
    ( = )

(* A boundary [stall] epochs behind the bank, with every summary up to
   it produced. *)
let at ?(retry = 0) ?(live = false) ~stall () =
  { Watchdog.epoch = stall + 1; last_summary_epoch = stall; last_synced_epoch = 0;
    retry_attempt = retry; committee_live = live }

let decide ?(w = Config.default_watchdog) ?(mode = Watchdog.Normal) ?(streak = 0)
    ?(safety = clean) obs =
  snd
    (Watchdog.tick w
       { Watchdog.initial with Watchdog.mode; signing_streak = streak }
       obs ~safety)

let degrade r = Watchdog.Enter (Watchdog.Degraded, r)

let test_stall_thresholds () =
  Alcotest.check action "stall 2 stays" Watchdog.Stay (decide (at ~stall:2 ()));
  Alcotest.check action "stall 3 degrades" (degrade "sync stalled for 3 epochs")
    (decide (at ~stall:3 ()));
  Alcotest.check action "stall 6 halts" (Watchdog.Halt "sync stalled for 6 epochs")
    (decide (at ~stall:6 ()));
  let w = { Config.wd_stall_degraded = 2; wd_stall_halted = 4 } in
  Alcotest.check action "configured degrade" (degrade "sync stalled for 2 epochs")
    (decide ~w (at ~stall:2 ()));
  Alcotest.check action "configured halt" (Watchdog.Halt "sync stalled for 4 epochs")
    (decide ~w (at ~stall:4 ()));
  Alcotest.check action "degraded stays degraded" Watchdog.Stay
    (decide ~mode:Watchdog.Degraded (at ~stall:3 ()));
  Alcotest.check action "stall above the pipeline depth holds" Watchdog.Stay
    (decide ~mode:Watchdog.Degraded (at ~stall:2 ()));
  Alcotest.check action "stall cleared"
    (Watchdog.Enter (Watchdog.Normal, "stall cleared; audit clean"))
    (decide ~mode:Watchdog.Degraded (at ~stall:1 ()))

let test_retry_and_streak_thresholds () =
  Alcotest.check action "3 retries stay" Watchdog.Stay (decide (at ~retry:3 ~stall:1 ()));
  Alcotest.check action "4 retries degrade" (degrade "4 consecutive sync retries")
    (decide (at ~retry:4 ~stall:1 ()));
  Alcotest.check action "8 retries halt" (Watchdog.Halt "sync retries exhausted (8)")
    (decide (at ~retry:8 ~stall:1 ()));
  Alcotest.check action "retries hold degraded" Watchdog.Stay
    (decide ~mode:Watchdog.Degraded (at ~retry:4 ~stall:1 ()));
  Alcotest.check action "streak 3 stays" Watchdog.Stay
    (decide ~streak:3 (at ~stall:1 ()));
  Alcotest.check action "streak 4 degrades"
    (degrade "4 consecutive degraded-quorum signings")
    (decide ~streak:4 (at ~stall:1 ()));
  let st =
    Watchdog.signed (Watchdog.signed Watchdog.initial ~degraded:true) ~degraded:true
  in
  Alcotest.(check int) "degraded signings extend the streak" 2 st.Watchdog.signing_streak;
  Alcotest.(check int) "a full quorum resets it" 0
    (Watchdog.signed st ~degraded:false).Watchdog.signing_streak

let test_reason_precedence () =
  Alcotest.check action "fatal first" (Watchdog.Halt "monitor: fatal invariant violation")
    (decide ~safety:fatal ~streak:9 (at ~retry:9 ~stall:9 ()));
  Alcotest.check action "stall before retries" (Watchdog.Halt "sync stalled for 6 epochs")
    (decide (at ~retry:9 ~stall:6 ()));
  (* A live committee grades the streak Degraded, and a Degraded finding
     is named before the stall, the retries and the streak. *)
  Alcotest.check action "degraded finding first" (degrade "monitor: degraded violation")
    (decide ~streak:4 (at ~retry:4 ~live:true ~stall:3 ()));
  Alcotest.check action "stall before retries and streak"
    (degrade "sync stalled for 3 epochs")
    (decide ~streak:4 (at ~retry:4 ~stall:3 ()));
  Alcotest.check action "retries before streak" (degrade "4 consecutive sync retries")
    (decide ~streak:4 (at ~retry:4 ~stall:1 ()))

let test_recovering_and_halted () =
  let recovering = decide ~mode:Watchdog.Recovering in
  Alcotest.check action "clean audit recovers"
    (Watchdog.Enter (Watchdog.Normal, "clean audit after reconciliation"))
    (recovering (at ~stall:9 ()));
  Alcotest.check action "a fatal violation holds" Watchdog.Stay
    (recovering ~safety:fatal (at ~stall:1 ()));
  Alcotest.check action "a warning finding holds" Watchdog.Stay
    (recovering ~streak:1 (at ~live:true ~stall:1 ()));
  Alcotest.check action "halted reconciles" Watchdog.Reconcile
    (decide ~mode:Watchdog.Halted ~safety:fatal (at ~stall:9 ()))

let test_divergence_escalation () =
  let st, first = Watchdog.audited Watchdog.initial ~diverged:true ~dissolved:false in
  Alcotest.check action "streak 1 degrades"
    (degrade "twin: state divergence detected") first;
  let st = Watchdog.enter st Watchdog.Degraded ~now:1.0 in
  let st, second = Watchdog.audited st ~diverged:true ~dissolved:false in
  Alcotest.check action "streak 2 halts" (Watchdog.Halt "twin: repeated state divergence")
    second;
  let st, cleared = Watchdog.audited st ~diverged:false ~dissolved:false in
  Alcotest.check action "clean audit" Watchdog.Stay cleared;
  Alcotest.(check int) "streak reset" 0 st.Watchdog.divergence_streak;
  let st, _ = Watchdog.audited st ~diverged:true ~dissolved:true in
  let st, dissolved = Watchdog.audited st ~diverged:true ~dissolved:true in
  Alcotest.check action "dissolved: nothing" Watchdog.Stay dissolved;
  Alcotest.(check int) "dissolved streak still counts" 2 st.Watchdog.divergence_streak

let test_halt_and_recovery_times () =
  let st =
    List.fold_left
      (fun st (now, m) -> Watchdog.enter st m ~now)
      Watchdog.initial
      [ (1.0, Watchdog.Degraded); (2.0, Watchdog.Halted); (5.0, Watchdog.Recovering);
        (6.0, Watchdog.Normal) ]
  in
  Alcotest.(check (option (float 1e-9))) "halted at" (Some 2.0) (Watchdog.halted_at st);
  Alcotest.(check (option (float 1e-9))) "recovered after" (Some 3.0)
    (Watchdog.recovery_latency st);
  let st =
    Watchdog.enter (Watchdog.enter st Watchdog.Degraded ~now:7.0) Watchdog.Halted ~now:9.0
  in
  Alcotest.(check (option (float 1e-9))) "latest halt" (Some 9.0) (Watchdog.halted_at st);
  Alcotest.(check (option (float 1e-9))) "a second halt clears the recovery" None
    (Watchdog.recovery_latency st)

let () =
  Alcotest.run "monitor"
    [ ( "audit",
        [ Alcotest.test_case "clean audit" `Quick test_clean_audit;
          Alcotest.test_case "custody violation fatal" `Quick
            test_custody_violation_is_fatal;
          Alcotest.test_case "liveness graded by lag" `Quick
            test_liveness_grades_by_lag;
          Alcotest.test_case "dead committee skips liveness" `Quick
            test_committee_dead_skips_liveness;
          Alcotest.test_case "signing streak thresholds" `Quick
            test_signing_streak_thresholds;
          Alcotest.test_case "certificate chain" `Quick
            test_certificate_chain_validated;
          Alcotest.test_case "totals accumulate" `Quick test_totals_accumulate;
          Alcotest.test_case "pool solvency violation fatal" `Quick
            test_pool_solvency_violation ] );
      ( "watch",
        [ Alcotest.test_case "stall thresholds" `Quick test_stall_thresholds;
          Alcotest.test_case "retry and signing streak thresholds" `Quick
            test_retry_and_streak_thresholds;
          Alcotest.test_case "reason precedence" `Quick test_reason_precedence;
          Alcotest.test_case "recovering and halted" `Quick test_recovering_and_halted;
          Alcotest.test_case "twin divergence escalation" `Quick
            test_divergence_escalation;
          Alcotest.test_case "halt and recovery times" `Quick
            test_halt_and_recovery_times ] ) ]
