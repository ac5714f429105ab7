(* The cross-layer invariant monitor (lib/monitor): clean audits over a
   consistent bank+pool view, fatal detection of broken conservation and
   forged or gapped quorum certificates, the graded liveness thresholds,
   the committee-dead audit subset, and the cumulative totals feeding the
   telemetry counters. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Erc20 = Mainchain.Erc20
module Bls = Amm_crypto.Bls
module Q96 = Amm_math.Q96
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

let make_env ?thresholds () =
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
  { bank; erc0; pool; keys; pool_id; sink; mon = Monitor.create ?thresholds sink }

let payload ?(users = []) env ~epoch ~balance0 ~balance1 =
  { Sync_payload.epoch; pool = env.pool_id; pool_balance0 = balance0;
    pool_balance1 = balance1; users; positions = [];
    next_committee_vk = snd env.keys.(epoch + 1) }

let sign env ~epoch p = Bls.sign (fst env.keys.(epoch)) (Sync_payload.signing_bytes p)

let audit ?(epoch = 1) ?(last_summary = 0) ?(pending = []) ?(horizon = 0)
    ?(streak = 0) ?(live = true) env =
  Monitor.audit env.mon ~epoch ~now:0.0 ~bank:env.bank ~pool:env.pool
    ~last_summary_epoch:last_summary ~pending ~deposit_horizon:horizon
    ~degraded_signing_streak:streak ~committee_live:live

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

let checks_of v = List.map (fun x -> x.Monitor.v_check) v.Monitor.r_violations

let test_clean_audit () =
  let env = make_env () in
  settle_epoch0 env;
  let r = audit env ~epoch:1 ~last_summary:0 in
  Alcotest.(check (list string)) "no violations" [] (checks_of r);
  Alcotest.(check int) "all checks run" 7 r.Monitor.r_checks;
  Alcotest.(check bool) "no worst severity" true (Monitor.worst r = None);
  Alcotest.(check int) "audit counted" 1 (Monitor.audits_run env.mon);
  Alcotest.(check bool) "no totals" true (Monitor.violation_totals env.mon = [])

let test_custody_violation_is_fatal () =
  let env = make_env () in
  settle_epoch0 env;
  (* Tokens appear in custody that no deposit or pool reserve explains. *)
  Erc20.mint env.erc0 (Token_bank.address env.bank) one_e18;
  let r = audit env ~epoch:1 ~last_summary:0 in
  Alcotest.(check bool) "fatal" true (Monitor.has_fatal r);
  Alcotest.(check (list string)) "conservation check fires"
    [ "custody-conservation" ] (checks_of r)

let test_liveness_grades_by_lag () =
  let env = make_env () in
  (* Bank never synced: applied lag grows with the summary frontier.
     Defaults: warning at lag 2, degraded at lag 3 (sync lag is shifted
     by one epoch of pipeline depth). *)
  let warn = audit env ~epoch:3 ~last_summary:2 in
  Alcotest.(check (list string)) "warning fires" [ "sync-liveness" ] (checks_of warn);
  Alcotest.(check bool) "warning severity" true (Monitor.worst warn = Some Monitor.Warning);
  let deg = audit env ~epoch:4 ~last_summary:3 in
  Alcotest.(check bool) "degraded severity" true (Monitor.worst deg = Some Monitor.Degraded);
  (* Stalled summary production trips the sidechain-side check too. *)
  let stalled = audit env ~epoch:4 ~last_summary:(-1) in
  Alcotest.(check bool) "summary liveness fires" true
    (List.mem "summary-liveness" (checks_of stalled))

let test_committee_dead_skips_liveness () =
  let env = make_env () in
  (* Same stalled state, dead committee: the liveness lags are
     meaningless, only the 5 safety checks run — and pass. *)
  let r = audit env ~epoch:4 ~last_summary:(-1) ~live:false ~streak:9 in
  Alcotest.(check int) "safety subset" 5 r.Monitor.r_checks;
  Alcotest.(check (list string)) "no violations" [] (checks_of r)

let test_signing_streak_thresholds () =
  let env = make_env () in
  settle_epoch0 env;
  let w = audit env ~epoch:1 ~last_summary:0 ~streak:1 in
  Alcotest.(check bool) "streak 1 warns" true (Monitor.worst w = Some Monitor.Warning);
  let d = audit env ~epoch:1 ~last_summary:0 ~streak:4 in
  Alcotest.(check bool) "streak 4 degrades" true (Monitor.worst d = Some Monitor.Degraded);
  Alcotest.(check (list string)) "same check id" [ "degraded-signing" ] (checks_of d)

let test_certificate_chain_validated () =
  let env = make_env () in
  let p0 = payload env ~epoch:0 ~balance0:U256.zero ~balance1:U256.zero in
  let p1 = payload env ~epoch:1 ~balance0:U256.zero ~balance1:U256.zero in
  let good = [ (p0, sign env ~epoch:0 p0); (p1, sign env ~epoch:1 p1) ] in
  Alcotest.(check (list string)) "valid chain clean" []
    (checks_of (audit env ~epoch:2 ~last_summary:1 ~pending:good));
  (* Epoch 1 missing from the pending chain. *)
  let gapped = [ (p1, sign env ~epoch:1 p1) ] in
  Alcotest.(check (list string)) "gap is fatal" [ "epoch-contiguity" ]
    (checks_of (audit env ~epoch:2 ~last_summary:1 ~pending:gapped));
  (* Epoch 1's certificate signed by the wrong committee key. *)
  let forged = [ (p0, sign env ~epoch:0 p0); (p1, sign env ~epoch:3 p1) ] in
  let r = audit env ~epoch:2 ~last_summary:1 ~pending:forged in
  Alcotest.(check (list string)) "forgery is fatal" [ "quorum-certificate" ]
    (checks_of r);
  Alcotest.(check bool) "fatal" true (Monitor.has_fatal r)

let test_totals_accumulate () =
  let env = make_env () in
  settle_epoch0 env;
  ignore (audit env ~epoch:1 ~last_summary:0 ~streak:1);      (* warning *)
  ignore (audit env ~epoch:1 ~last_summary:0 ~streak:5);      (* degraded *)
  Erc20.mint env.erc0 (Token_bank.address env.bank) one_e18;
  ignore (audit env ~epoch:1 ~last_summary:0);                (* fatal *)
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
  let r = audit env ~epoch:2 ~last_summary:1 in
  Alcotest.(check (list string)) "solvency check fires" [ "pool-solvency" ] (checks_of r);
  Alcotest.(check bool) "fatal" true (Monitor.worst r = Some Monitor.Fatal)

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
            test_pool_solvency_violation ] ) ]
