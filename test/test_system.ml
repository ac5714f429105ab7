(* End-to-end integration: multi-epoch ammBoost runs (deposits, epochs,
   syncing, pruning, payouts), interruption handling (silent leader,
   invalid sync, mainchain rollback → mass-sync recovery), the custody
   invariant, threshold-signed syncs, the traffic generator, and the
   baseline runner. These are the paper's Theorem 1 scenarios exercised
   mechanically. *)

open Ammboost

let base =
  { Config.default with
    epochs = 3;
    daily_volume = 50_000;
    users = 20;
    miners = 60;
    committee_size = 20;
    max_faulty = 6;
    seed = "system-tests" }

let run ?(cfg = base) () = System.run cfg

(* ------------------------------------------------------------------ *)
(* Nominal operation                                                   *)
(* ------------------------------------------------------------------ *)

let test_nominal_run () =
  let r = run () in
  Alcotest.(check bool) "traffic generated" true (r.System.generated > 100);
  Alcotest.(check bool) "nearly all processed" true
    (r.System.processed >= r.System.generated - (r.System.rejected + 5));
  Alcotest.(check int) "all epochs synced" r.System.epochs_run r.System.epochs_applied;
  Alcotest.(check bool) "payouts settled for every processed tx" true
    (r.System.payouts_settled = r.System.processed);
  Alcotest.(check bool) "custody invariant" true r.System.custody_consistent;
  Alcotest.(check int) "no mass-syncs needed" 0 r.System.mass_syncs;
  Alcotest.(check int) "no retries needed" 0 r.System.sync_retries;
  Alcotest.(check int) "no rollbacks" 0 r.System.rollbacks;
  Alcotest.(check (list (pair string int))) "no faults injected" []
    r.System.faults_injected;
  Alcotest.(check bool) "twin audit" true r.System.twin_consistent

let test_latency_sanity () =
  let r = run () in
  (* Uncongested: latency ≈ consensus delay, well under a round. *)
  Alcotest.(check bool)
    (Printf.sprintf "tx latency %.3f < round" r.System.mean_tx_latency)
    true
    (r.System.mean_tx_latency < base.Config.sc_round_duration);
  (* Payout latency ≈ half an epoch + sync confirmation. *)
  let epoch = Config.epoch_duration base in
  Alcotest.(check bool)
    (Printf.sprintf "payout latency %.1f plausible" r.System.mean_payout_latency)
    true
    (r.System.mean_payout_latency > 0.3 *. epoch
    && r.System.mean_payout_latency < 1.5 *. epoch)

let test_pruning_bounds_sidechain () =
  let r = run () in
  Alcotest.(check bool) "pruning reclaimed meta blocks" true
    (r.System.sc_stored_bytes < r.System.sc_cumulative_bytes);
  (* Permanent summaries only: stored size stays modest. *)
  Alcotest.(check bool) "stored well below cumulative" true
    (float_of_int r.System.sc_stored_bytes
    < 0.8 *. float_of_int r.System.sc_cumulative_bytes)

let test_deterministic_given_seed () =
  let r1 = run () and r2 = run () in
  Alcotest.(check int) "same generated" r1.System.generated r2.System.generated;
  Alcotest.(check int) "same processed" r1.System.processed r2.System.processed;
  Alcotest.(check int) "same gas" r1.System.mc_gas_total r2.System.mc_gas_total

let test_committee_rotation () =
  let r = run () in
  let leaders =
    List.sort_uniq compare (List.map (fun c -> c.System.leader) r.System.committees)
  in
  Alcotest.(check bool) "committees recorded" true (List.length r.System.committees >= 3);
  (* With 60 miners, repeated identical leadership across all epochs is
     overwhelmingly unlikely. *)
  Alcotest.(check bool) "leaders rotate" true (List.length leaders > 1)

let test_deposit_gas_matches_paper () =
  let r = run () in
  Alcotest.(check (float 1.0)) "52,696 per deposit (Table 6)" 52696.0
    r.System.deposit_gas_mean

let test_threshold_signing_mode () =
  (* Full DKG + threshold signatures on the Sync path. *)
  let cfg =
    { base with
      epochs = 2; users = 10; committee_size = 10; max_faulty = 2;
      threshold_signing = true; seed = "threshold-mode" }
  in
  let r = run ~cfg () in
  Alcotest.(check int) "synced with threshold sigs" r.System.epochs_run
    r.System.epochs_applied;
  Alcotest.(check bool) "custody" true r.System.custody_consistent

let test_signed_traffic_verified () =
  let cfg =
    { base with
      epochs = 2; sign_transactions = true; verify_signatures = true;
      seed = "signed-traffic" }
  in
  let r = run ~cfg () in
  Alcotest.(check bool) "signed traffic processes" true (r.System.processed > 50);
  Alcotest.(check bool) "no signature rejections" true
    (not (List.mem_assoc "invalid signature" r.System.rejection_reasons))

(* ------------------------------------------------------------------ *)
(* Interruptions (§4.2 "Handling interruptions")                       *)
(* ------------------------------------------------------------------ *)

let scripted interruptions = { Faults.Fault_plan.none with Faults.Fault_plan.interruptions }

let test_silent_sync_leader_mass_sync () =
  let cfg = { base with faults = scripted [ Faults.Fault_plan.Silent_leader 1 ] } in
  let r = run ~cfg () in
  (* No failure is observable on chain (nothing was submitted), so
     recovery comes from the next epoch's mass-sync, not a retry. *)
  Alcotest.(check bool) "mass-sync happened" true (r.System.mass_syncs >= 1);
  Alcotest.(check int) "all epochs eventually applied" r.System.epochs_run
    r.System.epochs_applied;
  Alcotest.(check bool) "payouts all settled" true
    (r.System.payouts_settled = r.System.processed);
  Alcotest.(check bool) "custody preserved" true r.System.custody_consistent;
  Alcotest.(check bool) "twin audit" true r.System.twin_consistent

let test_invalid_sync_rejected_then_recovered () =
  let cfg = { base with faults = scripted [ Faults.Fault_plan.Invalid_sync 1 ] } in
  let r = run ~cfg () in
  (* TokenBank rejected the tampered submission — an observed on-chain
     failure, so the leader's backoff retry resubmits the genuine
     summary before the next epoch ends (no mass-sync needed). *)
  Alcotest.(check bool) "recovered via retry" true (r.System.sync_retries >= 1);
  Alcotest.(check int) "state caught up" r.System.epochs_run r.System.epochs_applied;
  Alcotest.(check bool) "custody preserved" true r.System.custody_consistent;
  Alcotest.(check bool) "twin audit" true r.System.twin_consistent

let test_mainchain_rollback_recovered () =
  let cfg = { base with faults = scripted [ Faults.Fault_plan.Rollback 1 ] } in
  let r = run ~cfg () in
  Alcotest.(check bool) "rollback counter fired" true (r.System.rollbacks >= 1);
  Alcotest.(check bool) "the plan counted the reorg" true
    (List.mem ("mainchain.reorg", 1) r.System.faults_injected);
  Alcotest.(check bool) "recovered via retry or mass-sync" true
    (r.System.sync_retries >= 1 || r.System.mass_syncs >= 1);
  Alcotest.(check int) "state caught up after rollback" r.System.epochs_run
    r.System.epochs_applied;
  Alcotest.(check bool) "custody preserved" true r.System.custody_consistent;
  Alcotest.(check bool) "twin audit" true r.System.twin_consistent

let test_multiple_interruptions () =
  let cfg =
    { base with
      epochs = 5;
      faults =
        scripted
          [ Faults.Fault_plan.Silent_leader 0; Faults.Fault_plan.Invalid_sync 2;
            Faults.Fault_plan.Silent_leader 3 ] }
  in
  let r = run ~cfg () in
  Alcotest.(check int) "all recovered" r.System.epochs_run r.System.epochs_applied;
  Alcotest.(check bool) "custody preserved" true r.System.custody_consistent

let test_censoring_committee_liveness () =
  (* Lemma 2's DoS threat: the epoch-1 committee omits user 0's
     transactions; committee rotation processes them in epoch 2, so
     every generated transaction is still eventually processed. *)
  let cfg = { base with faults = scripted [ Faults.Fault_plan.Censoring 1 ] } in
  let r = run ~cfg () in
  Alcotest.(check bool) "everything eventually processed" true
    (r.System.processed >= r.System.generated - r.System.rejected - 5);
  Alcotest.(check bool) "all payouts settle" true
    (r.System.payouts_settled = r.System.processed);
  Alcotest.(check bool) "custody" true r.System.custody_consistent;
  Alcotest.(check bool) "twin audit" true r.System.twin_consistent

let test_message_level_consensus_mode () =
  (* Real PBFT per round instead of the latency model; metrics stay sane
     and everything still syncs. *)
  let cfg =
    { base with
      epochs = 2; users = 10; committee_size = 13; max_faulty = 4;
      message_level_consensus = true; seed = "message-level" }
  in
  let r = run ~cfg () in
  Alcotest.(check int) "synced" r.System.epochs_run r.System.epochs_applied;
  Alcotest.(check bool) "latency from real consensus" true
    (r.System.mean_tx_latency > 0.0
    && r.System.mean_tx_latency < base.Config.sc_round_duration);
  Alcotest.(check bool) "custody" true r.System.custody_consistent

let test_self_audit_mode () =
  (* Every epoch's summary re-derived from its meta-blocks and matched —
     the public-verifiability path exercised end-to-end. *)
  let cfg = { base with epochs = 2; self_audit = true; seed = "self-audit" } in
  let r = run ~cfg () in
  Alcotest.(check (option bool)) "all summaries audit clean" (Some true)
    r.System.audit_passed

let test_committee_round_faults () =
  let rng = Amm_crypto.Rng.create "committee-round" in
  let c =
    Sidechain.Committee.create ~rng ~members:10 ~max_faulty:3 ~delta:0.05 ~timeout:0.5
  in
  let digest = Bytes.of_string "block" in
  let ok = Sidechain.Committee.agree c ~block_digest:digest ~horizon:30.0 in
  Alcotest.(check bool) "clean round decides" true ok.Sidechain.Committee.decided;
  Alcotest.(check int) "no view change" 0 ok.Sidechain.Committee.view_changes;
  let faulty =
    Sidechain.Committee.agree c ~invalid_proposer:true ~silent:[ 4; 7 ]
      ~block_digest:digest ~horizon:30.0
  in
  Alcotest.(check bool) "decides despite faults" true faulty.Sidechain.Committee.decided;
  Alcotest.(check bool) "leader replaced" true (faulty.Sidechain.Committee.view_changes > 0);
  Alcotest.(check bool) "slower than clean round" true
    (faulty.Sidechain.Committee.latency > ok.Sidechain.Committee.latency)

(* The latency model times a round by the committee the run elects: a
   13-member committee gossips in fewer hops than a 500-member one. *)
let test_latency_model_committee_size () =
  let consensus_mean committee_size =
    let cfg =
      { base with
        epochs = 1; users = 10; committee_size; max_faulty = (committee_size - 2) / 3;
        miners = Stdlib.max base.Config.miners (2 * committee_size);
        seed = "latency-committee" }
    in
    let r = run ~cfg () in
    match
      Telemetry.Metrics.find_histogram r.System.telemetry.Telemetry.Report.metrics
        "latency.consensus"
    with
    | Some h -> Telemetry.Histogram.mean h
    | None -> Alcotest.fail "no latency.consensus histogram"
  in
  let small = consensus_mean 13 and large = consensus_mean 500 in
  Alcotest.(check bool)
    (Printf.sprintf "13 members (%.4f s) faster than 500 (%.4f s)" small large)
    true (small < large)

(* ------------------------------------------------------------------ *)
(* Congestion behavior                                                 *)
(* ------------------------------------------------------------------ *)

let test_congestion_raises_latency () =
  (* A tiny meta-block forces queueing; latency must grow well past the
     uncongested level while the queue still drains fully. *)
  let uncongested = run () in
  (* ~3 arrivals (~3 KB) per round against a ~1-transaction block. *)
  let congested =
    run ~cfg:{ base with meta_block_bytes = 1_500; seed = "congested" } ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "latency grows (%.2f -> %.2f)" uncongested.System.mean_tx_latency
       congested.System.mean_tx_latency)
    true
    (congested.System.mean_tx_latency > 4.0 *. uncongested.System.mean_tx_latency);
  Alcotest.(check bool) "queue drained eventually" true
    (congested.System.processed >= congested.System.generated - congested.System.rejected - 5)

let test_throughput_scales_with_block_size () =
  let cfg volume bytes seed =
    { base with daily_volume = volume; meta_block_bytes = bytes; seed }
  in
  let small = run ~cfg:(cfg 2_000_000 50_000 "small-blocks") () in
  let large = run ~cfg:(cfg 2_000_000 100_000 "large-blocks") () in
  let ratio = large.System.throughput /. small.System.throughput in
  Alcotest.(check bool) (Printf.sprintf "2x blocks -> ~2x throughput (%.2f)" ratio) true
    (ratio > 1.6 && ratio < 2.4)

let test_deadlines_expire_under_congestion () =
  (* Tiny blocks + a short validity window: queued swaps expire and are
     rejected with the deadline reason instead of executing stale. *)
  let cfg =
    { base with
      meta_block_bytes = 1_500; swap_deadline_rounds = 5; seed = "deadline-congestion" }
  in
  let r = run ~cfg () in
  Alcotest.(check bool) "expired swaps rejected" true
    (match List.assoc_opt "swap: deadline passed" r.System.rejection_reasons with
    | Some n -> n > 0
    | None -> false);
  (* The system still settles whatever it processed. *)
  Alcotest.(check bool) "settlement intact" true
    (r.System.payouts_settled = r.System.processed && r.System.custody_consistent)

(* ------------------------------------------------------------------ *)
(* Traffic generator                                                   *)
(* ------------------------------------------------------------------ *)

let test_traffic_distribution () =
  let cfg = { base with epochs = 6; daily_volume = 500_000; users = 50 } in
  let rng = Amm_crypto.Rng.create "traffic-dist" in
  let users =
    Party.make_users (Amm_crypto.Rng.split rng "users") ~count:cfg.Config.users
      ~lp_fraction:Config.lp_fraction
  in
  let traffic = Traffic.create ~rng ~cfg ~users in
  for round = 0 to 299 do
    ignore (Traffic.generate_round traffic ~round ~time:(float_of_int round *. 4.0))
  done;
  let stats = Traffic.table8_stats traffic in
  let share name =
    (List.find (fun r -> r.Traffic.ts_name = name) stats).Traffic.ts_share_pct
  in
  Alcotest.(check bool)
    (Printf.sprintf "swap share %.1f ~ 93.19" (share "Swap"))
    true
    (Float.abs (share "Swap" -. 93.19) < 2.0);
  (* Burns/collects with no position fall back to mints, so mint share
     runs slightly above its nominal 2.14. *)
  Alcotest.(check bool) "mint share sane" true (share "Mint" < 7.0);
  let arrivals = Config.arrivals_per_round cfg in
  Alcotest.(check int) "rho = ceil(V_D * b_t / 86400)" 24 arrivals

let test_arrival_rate_formula () =
  let at volume duration =
    Config.arrivals_per_round
      { base with daily_volume = volume; sc_round_duration = duration }
  in
  Alcotest.(check int) "50K @ 4s" 3 (at 50_000 4.0);
  Alcotest.(check int) "500K @ 4s" 24 (at 500_000 4.0);
  Alcotest.(check int) "5M @ 4s" 232 (at 5_000_000 4.0);
  Alcotest.(check int) "25M @ 4s" 1158 (at 25_000_000 4.0);
  Alcotest.(check int) "25M @ 12s" 3473 (at 25_000_000 12.0)

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)
(* ------------------------------------------------------------------ *)

let test_baseline_runs () =
  let b = Baseline.run { base with seed = "baseline-test" } in
  Alcotest.(check bool) "executed most traffic" true
    (b.Baseline.executed > (3 * b.Baseline.generated) / 4);
  Alcotest.(check bool) "gas accounted" true (b.Baseline.gas_total > 0);
  Alcotest.(check bool) "per-op gas matches model" true
    (List.mem_assoc "swap" b.Baseline.gas_by_op);
  (* Ethereum encoding is strictly larger than Sepolia's. *)
  Alcotest.(check bool) "ethereum bytes > sepolia bytes" true
    (b.Baseline.mc_tx_bytes_ethereum > b.Baseline.mc_tx_bytes)

let test_ammboost_beats_baseline () =
  (* The headline claim at a volume where fixed costs are amortized. *)
  let cfg =
    { base with epochs = 4; daily_volume = 500_000; users = 30; seed = "comparison" }
  in
  let r = System.run cfg in
  let b = Baseline.run cfg in
  let gas_reduction =
    1.0 -. (float_of_int r.System.mc_gas_total /. float_of_int b.Baseline.gas_total)
  in
  Alcotest.(check bool)
    (Printf.sprintf "gas reduction %.1f%% > 60%%" (100.0 *. gas_reduction))
    true (gas_reduction > 0.6);
  let growth_reduction =
    1.0 -. (float_of_int r.System.mc_tx_bytes /. float_of_int b.Baseline.mc_tx_bytes)
  in
  Alcotest.(check bool)
    (Printf.sprintf "growth reduction %.1f%% > 40%%" (100.0 *. growth_reduction))
    true (growth_reduction > 0.4)

(* ------------------------------------------------------------------ *)
(* End-to-end property: any processed epoch syncs                      *)
(* ------------------------------------------------------------------ *)

(* Random transaction soups, processed by the sidechain engine, must
   always yield a payload TokenBank accepts — signature, epoch order and
   token conservation all passing — with custody exactly covering the
   pool afterwards. *)
let sidechain_to_tokenbank_roundtrip_prop =
  let module U256 = Amm_math.U256 in
  let module TB = Tokenbank.Token_bank in
  let gen =
    QCheck2.Gen.(list_size (int_range 5 40) (triple (int_range 0 4) (int_range 1 400) bool))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20 ~name:"processor payload always syncs" gen (fun ops ->
         let rng = Amm_crypto.Rng.create "roundtrip" in
         let erc0 = Mainchain.Erc20.deploy (Chain.Token.make ~id:0 ~symbol:"TKA") in
         let erc1 = Mainchain.Erc20.deploy (Chain.Token.make ~id:1 ~symbol:"TKB") in
         let csk, cvk = Amm_crypto.Bls.keygen rng in
         let bank = TB.deploy ~token0:erc0 ~token1:erc1 ~genesis_committee_vk:cvk in
         let pool_id = TB.create_pool bank ~flash_fee_pips:3000 in
         let users =
           List.map
             (fun name ->
               let a = Chain.Address.of_label name in
               let big = U256.of_string "10000000000000000000000000" in
               Mainchain.Erc20.mint erc0 a big;
               Mainchain.Erc20.mint erc1 a big;
               Mainchain.Erc20.approve erc0 ~owner:a ~spender:(TB.address bank) U256.max_value;
               Mainchain.Erc20.approve erc1 ~owner:a ~spender:(TB.address bank) U256.max_value;
               (match
                  TB.deposit bank ~user:a ~for_epoch:0
                    ~amount0:(U256.of_string "1000000000000000000000000")
                    ~amount1:(U256.of_string "1000000000000000000000000")
                with
               | Ok () -> ()
               | Error e -> failwith e);
               a)
             [ "rt-alice"; "rt-bob"; "rt-carol" ]
         in
         let pool =
           Uniswap.Pool.create ~pool_id ~token0:(Chain.Token.make ~id:0 ~symbol:"TKA")
             ~token1:(Chain.Token.make ~id:1 ~symbol:"TKB") ~fee_pips:3000
             ~tick_spacing:60 ~sqrt_price:Amm_math.Q96.q96
         in
         let processor =
           Sidechain.Processor.begin_epoch ~pool ~snapshot:(TB.snapshot bank ~epoch:0)
             ~verify_signatures:false ()
         in
         let dummy_pk = cvk in
         let mk issuer round payload =
           Chain.Tx.create ~issuer ~issuer_pk:dummy_pk ~pool:pool_id ~issued_round:round
             ~issued_at:0.0 payload
         in
         (* Seed liquidity. *)
         let genesis =
           mk (List.hd users) 0
             (Chain.Tx.Mint
                { lower_tick = -887220; upper_tick = 887220;
                  amount0_desired = U256.of_string "100000000000000000000000";
                  amount1_desired = U256.of_string "100000000000000000000000";
                  target = Chain.Tx.New_position })
         in
         (match Sidechain.Processor.process processor ~current_round:0 genesis with
         | Ok () -> ()
         | Error e -> failwith e);
         let minted = ref [] in
         List.iteri
           (fun i (op, magnitude, flag) ->
             let round = i + 1 in
             let issuer = List.nth users (magnitude mod 3) in
             let amount =
               U256.mul (U256.of_string "1000000000000000") (U256.of_int magnitude)
             in
             let tx =
               match op with
               | 0 | 1 ->
                 mk issuer round
                   (Chain.Tx.Swap
                      { zero_for_one = flag;
                        kind = (if op = 0 then Chain.Tx.Exact_input else Chain.Tx.Exact_output);
                        amount_specified = amount;
                        amount_limit =
                          (if op = 0 then U256.zero else U256.mul amount (U256.of_int 3));
                        sqrt_price_limit = U256.zero; deadline = round + 50 })
               | 2 ->
                 mk issuer round
                   (Chain.Tx.Mint
                      { lower_tick = -1200; upper_tick = 1200; amount0_desired = amount;
                        amount1_desired = amount; target = Chain.Tx.New_position })
               | 3 ->
                 (match !minted with
                 | (owner, pid) :: _ when Chain.Address.equal owner issuer ->
                   mk issuer round
                     (Chain.Tx.Burn
                        { burn_position = pid; amount0_requested = U256.max_value;
                          amount1_requested = U256.max_value })
                 | _ ->
                   mk issuer round
                     (Chain.Tx.Collect
                        { collect_position =
                            Chain.Ids.Position_id.of_hash
                              (Amm_crypto.Sha256.digest_string "missing");
                          fees0_requested = amount; fees1_requested = amount }))
               | _ ->
                 (match !minted with
                 | (_, pid) :: _ ->
                   mk issuer round
                     (Chain.Tx.Collect
                        { collect_position = pid; fees0_requested = U256.max_value;
                          fees1_requested = U256.max_value })
                 | [] ->
                   mk issuer round
                     (Chain.Tx.Collect
                        { collect_position =
                            Chain.Ids.Position_id.of_hash
                              (Amm_crypto.Sha256.digest_string "missing");
                          fees0_requested = amount; fees1_requested = amount }))
             in
             match (op, Sidechain.Processor.process processor ~current_round:round tx) with
             | 2, Ok () ->
               minted :=
                 (issuer, Uniswap.Position.derive_id ~minter:issuer ~tx_id:tx.Chain.Tx.id)
                 :: !minted
             | 3, Ok () -> (match !minted with _ :: rest -> minted := rest | [] -> ())
             | _ -> ())
           ops;
         let payload =
           Sidechain.Processor.build_payload processor ~epoch:0 ~next_committee_vk:cvk
         in
         let signature =
           Amm_crypto.Bls.sign csk (Tokenbank.Sync_payload.signing_bytes payload)
         in
         match TB.sync bank ~signed:[ (payload, signature) ] with
         | Error e ->
           QCheck2.Test.fail_reportf "sync rejected: %s" (TB.rejection_to_string e)
         | Ok _ ->
           let c0, c1 = TB.total_custody bank in
           (match TB.pool bank pool_id with
           | Some pi ->
             U256.equal c0 pi.TB.balance0 && U256.equal c1 pi.TB.balance1
           | None -> false)))

(* ------------------------------------------------------------------ *)
(* Mainchain substrate                                                 *)
(* ------------------------------------------------------------------ *)

let test_eth_block_production_and_latency () =
  let rng = Amm_crypto.Rng.create "eth" in
  let eth = Mainchain.Eth.create ~interval:12.0 ~rng () in
  let executed = ref [] in
  for i = 0 to 9 do
    Mainchain.Eth.submit eth ~at:(float_of_int i)
      { Mainchain.Eth.label = "op"; size_bytes = 100; gas = 50_000; flow_txs = 1;
        tag = Some (string_of_int i); execute = Some (fun h -> executed := h :: !executed) }
  done;
  Mainchain.Eth.advance_to eth 120.0;
  Alcotest.(check int) "all included" 10 (Mainchain.Eth.included_count eth);
  Alcotest.(check int) "all executed" 10 (List.length !executed);
  Alcotest.(check bool) "tags included" true (Mainchain.Eth.is_tag_included eth "5");
  (match Mainchain.Eth.mean_latency eth "op" with
  | Some l ->
    (* One flow leg ≈ 1.1 block intervals. *)
    Alcotest.(check bool) (Printf.sprintf "latency %.1f in [6;20]" l) true
      (l > 6.0 && l < 20.0)
  | None -> Alcotest.fail "no latency");
  Alcotest.(check bool) "bytes grow" true (Mainchain.Eth.cumulative_bytes eth > 1000)

let test_eth_gas_limit_congestion () =
  let rng = Amm_crypto.Rng.create "eth2" in
  let eth = Mainchain.Eth.create ~interval:12.0 ~gas_limit:100_000 ~rng () in
  for _ = 0 to 9 do
    Mainchain.Eth.submit eth ~at:0.0
      { Mainchain.Eth.label = "big"; size_bytes = 100; gas = 60_000; flow_txs = 1;
        tag = None; execute = None }
  done;
  (* Only one 60k tx fits per 100k block. *)
  Mainchain.Eth.advance_to eth 36.1;
  Alcotest.(check int) "one per block" 3 (Mainchain.Eth.included_count eth);
  Mainchain.Eth.advance_to eth 1200.0;
  Alcotest.(check int) "eventually all" 10 (Mainchain.Eth.included_count eth)

(* A mined transaction's heap slot must not keep its [execute] closure,
   or what the closure captures, alive: each of these captures a 64 KiB
   buffer, and once all are mined no buffer may survive a full major
   collection. *)
let test_eth_mined_txs_released () =
  let rng = Amm_crypto.Rng.create "eth-release" in
  let eth = Mainchain.Eth.create ~interval:12.0 ~rng () in
  let n = 8 in
  let buffers = Weak.create n in
  let submit i =
    let buf = Bytes.create (64 * 1024) in
    Weak.set buffers i (Some buf);
    Mainchain.Eth.submit eth ~at:(float_of_int (3 * i))
      { Mainchain.Eth.label = "op"; size_bytes = 100; gas = 21_000;
        flow_txs = 1 + (i mod 3); tag = None;
        execute = Some (fun _ -> ignore (Bytes.length buf)) }
  in
  for i = 0 to n - 1 do
    submit i
  done;
  Mainchain.Eth.advance_to eth 600.0;
  Alcotest.(check int) "all mined" n (Mainchain.Eth.included_count eth);
  Gc.full_major ();
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check buffers i then incr alive
  done;
  Alcotest.(check int) "no mined tx's buffer survives" 0 !alive;
  (* The chain itself is still in use. *)
  Alcotest.(check int) "nothing pending" 0 (Mainchain.Eth.pending_count eth)

(* mine_block must drain the pending pool strictly by (ready_at,
   submission seq). With [flow_txs = 1] a transaction's readiness is the
   deterministic propagation offset [at +. 0.6 *. interval] — no random
   legs — so the inclusion order read back from the blocks must equal a
   stable sort of the submissions by arrival time, duplicates (ties)
   kept in submission order. *)
let eth_drain_order_prop =
  let gen = QCheck2.Gen.(list_size (int_range 1 80) (int_range 0 20)) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"drain order = (ready_at, seq)" gen
       (fun slots ->
         let rng = Amm_crypto.Rng.create "eth-drain" in
         let eth = Mainchain.Eth.create ~interval:12.0 ~rng () in
         List.iteri
           (fun i slot ->
             Mainchain.Eth.submit eth ~at:(float_of_int slot)
               { Mainchain.Eth.label = "op"; size_bytes = 64; gas = 21_000;
                 flow_txs = 1; tag = Some (string_of_int i); execute = None })
           slots;
         Mainchain.Eth.advance_to eth 2_000.0;
         let included = ref [] in
         for h = 1 to Mainchain.Eth.height eth do
           match Mainchain.Eth.block_at eth h with
           | Some b ->
             included := !included @ Mainchain.Eth.block_tx_tags b
           | None -> ()
         done;
         let expected =
           List.mapi (fun i slot -> (slot, i)) slots
           |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
           |> List.map (fun (_, i) -> string_of_int i)
         in
         !included = expected))

let test_eth_rollback_drops_tags () =
  let rng = Amm_crypto.Rng.create "eth3" in
  let eth = Mainchain.Eth.create ~interval:12.0 ~rng () in
  Mainchain.Eth.submit eth ~at:0.0
    { Mainchain.Eth.label = "sync"; size_bytes = 100; gas = 1000; flow_txs = 1;
      tag = Some "sync-0"; execute = None };
  Mainchain.Eth.advance_to eth 40.0;
  Alcotest.(check bool) "included" true (Mainchain.Eth.is_tag_included eth "sync-0");
  let dropped = Mainchain.Eth.rollback eth (Mainchain.Eth.height eth) in
  Alcotest.(check (list string)) "tag dropped" [ "sync-0" ] dropped;
  Alcotest.(check bool) "no longer included" false
    (Mainchain.Eth.is_tag_included eth "sync-0")

(* ------------------------------------------------------------------ *)
(* Liveness watchdog and emergency exit                                *)
(* ------------------------------------------------------------------ *)

let watchdog_cfg scenario =
  { base with
    epochs = 8;
    faults = { Faults.Fault_plan.none with Faults.Fault_plan.scenario };
    watchdog =
      { Config.wd_stall_degraded = 2; wd_stall_halted = 4 };
    seed = "system-watchdog" }

let test_nominal_stays_normal () =
  let r = run () in
  Alcotest.(check string) "final mode" "normal" r.System.final_mode;
  Alcotest.(check bool) "no transitions" true (r.System.mode_transitions = []);
  Alcotest.(check int) "no exits" 0 r.System.exits_served;
  Alcotest.(check bool) "audited every epoch" true
    (r.System.monitor_audits >= r.System.epochs_run)

let test_permanent_loss_halts_and_exits () =
  let cfg =
    watchdog_cfg
      { Faults.Fault_plan.quorum_starvation = None; committee_loss = Some 2 }
  in
  let r = System.run cfg in
  Alcotest.(check string) "terminal mode" "halted" r.System.final_mode;
  Alcotest.(check (list string)) "trajectory" [ "degraded"; "halted" ]
    (List.map snd r.System.mode_transitions);
  Alcotest.(check bool) "halt timestamped" true (r.System.halted_at <> None);
  Alcotest.(check int) "every party exited" cfg.Config.users r.System.exits_served;
  Alcotest.(check bool) "exits carry value" true
    (Amm_math.U256.gt r.System.exit_claims0 Amm_math.U256.zero);
  Alcotest.(check bool) "exit conservation" true r.System.exit_conservation;
  Alcotest.(check bool) "twin covers halt + exits" true r.System.twin_consistent;
  Alcotest.(check bool) "custody invariant" true r.System.custody_consistent;
  Alcotest.(check bool) "never reconciled" true (r.System.reconciliation = None)

let test_starvation_halts_then_recovers () =
  let cfg =
    watchdog_cfg
      { Faults.Fault_plan.quorum_starvation = Some (2, 5); committee_loss = None }
  in
  let r = System.run cfg in
  Alcotest.(check string) "recovered" "normal" r.System.final_mode;
  Alcotest.(check (list string)) "full cycle"
    [ "degraded"; "halted"; "recovering"; "normal" ]
    (List.map snd r.System.mode_transitions);
  Alcotest.(check int) "every party exited" cfg.Config.users r.System.exits_served;
  Alcotest.(check bool) "reconciliation applied" true (r.System.reconciliation <> None);
  Alcotest.(check bool) "recovery latency measured" true
    (match r.System.recovery_latency with Some l -> l > 0.0 | None -> false);
  Alcotest.(check bool) "exit conservation" true r.System.exit_conservation;
  Alcotest.(check bool) "twin covers reconcile" true r.System.twin_consistent;
  Alcotest.(check bool) "custody invariant" true r.System.custody_consistent

let test_watchdog_run_deterministic () =
  let cfg =
    watchdog_cfg
      { Faults.Fault_plan.quorum_starvation = Some (2, 5); committee_loss = None }
  in
  let a = System.run cfg and b = System.run cfg in
  Alcotest.(check (list (pair (float 1e-9) string))) "identical transitions"
    a.System.mode_transitions b.System.mode_transitions;
  Alcotest.(check int) "identical exits" a.System.exits_served b.System.exits_served;
  Alcotest.(check string) "identical claims"
    (Amm_math.U256.to_string a.System.exit_claims0)
    (Amm_math.U256.to_string b.System.exit_claims0)

(* A second halt clears the first halt's recovery: both timestamps
   describe the latest halt, which this run never recovers from. *)
let test_second_halt_clears_recovery () =
  let cfg =
    { (watchdog_cfg
         { Faults.Fault_plan.quorum_starvation = Some (2, 5); committee_loss = Some 7 })
      with epochs = 12 }
  in
  let r = System.run cfg in
  Alcotest.(check (list string)) "halted twice"
    [ "degraded"; "halted"; "recovering"; "normal"; "degraded"; "halted" ]
    (List.map snd r.System.mode_transitions);
  Alcotest.(check (option (float 1e-9))) "latest halt" (Some 1080.0) r.System.halted_at;
  Alcotest.(check (option (float 1e-9))) "no recovery since" None
    r.System.recovery_latency

(* ------------------------------------------------------------------ *)
(* Bounded memory                                                      *)
(* ------------------------------------------------------------------ *)

(* Words the run holds at its last epoch boundary and, when [at] is
   given, at that epoch's boundary. *)
let retained_words ?at (cfg : Config.t) =
  let last = ref 0 and mid = ref 0 in
  let _ : System.result =
    System.run
      ~at_boundary:(fun b ->
        if Some b.System.b_epoch = at then mid := b.System.b_retained_words ();
        if b.System.b_epoch >= cfg.Config.epochs - 1 then
          last := b.System.b_retained_words ())
      cfg
  in
  (!mid, !last)

(* A 48-epoch run holds about what a 12-epoch run holds: what grows is
   the AMM's own state (positions accumulate) and what mirrors it — the
   twin's replica, shadow maps and sealed snapshots — plus the per-epoch
   outputs (growth ledger, metrics series, permanent summary blocks).
   Retained history (block bodies, signed payloads, twin ops and seals,
   Eth per-transaction records) would make it grow with every epoch. *)
let test_bounded_growth () =
  let cfg epochs = { (Experiments.sweep_cfg ~users:1000) with Config.epochs } in
  let _, w12 = retained_words (cfg 12) in
  let w24, w48 = retained_words ~at:24 (cfg 48) in
  let ratio a b = float_of_int a /. float_of_int b in
  Alcotest.(check bool)
    (Printf.sprintf "48 epochs hold %d words, 12 hold %d (x%.3f < x1.20)" w48 w12
       (ratio w48 w12))
    true
    (ratio w48 w12 < 1.20);
  Alcotest.(check bool)
    (Printf.sprintf "48 epochs hold %d words, 24 hold %d (x%.3f < x1.10)" w48 w24
       (ratio w48 w24))
    true
    (ratio w48 w24 < 1.10)

(* The retention edge: with mc_confirmations = 3 and 40-second epochs a
   sync's checkpoint outlives the epoch boundary, a scripted rollback of
   the newest unconfirmed sync and seeded reorgs restore checkpoints from
   before the twin's open window, and the run outlives the twin's
   retention. All of it must still find what it reads — the signed
   payloads it resubmits, the twin ops it restates — while seals and ops
   stay bounded. *)
let retention_cfg =
  { base with
    epochs = Twin.retained_epochs + 4;
    daily_volume = 20_000;
    users = 8;
    miners = 20;
    committee_size = 7;
    max_faulty = 2;
    sc_rounds_per_epoch = 10;
    mc_confirmations = 3;
    faults =
      { Faults.Fault_plan.none with
        Faults.Fault_plan.mainchain =
          { Faults.Fault_plan.none.Faults.Fault_plan.mainchain with
            Faults.Fault_plan.reorg_rate = 0.4;
            max_reorg_depth = 3 };
        interruptions = [ Faults.Fault_plan.Rollback (Twin.retained_epochs + 1) ] };
    seed = "retention-edge" }

let with_dir f = Durable.Fsio.with_temp_dir "ammboost-test-retention" f

(* A durable run resumed across every injected crash, each resume with
   the previous crash point disarmed; returns the run and its crashes. *)
let rec durable_to_completion ?armed_after ?(crashes = 0) ?at_boundary ~dir cfg =
  let s = Durable.Session.open_ ?armed_after ~dir ~snapshot_every:2 () in
  match System.run ?at_boundary ~durable:s cfg with
  | r -> (r, crashes)
  | exception Durable.Session.Crashed { epoch; round } ->
    durable_to_completion ~armed_after:(epoch, round) ~crashes:(crashes + 1)
      ?at_boundary ~dir cfg

let run_fingerprint (r : System.result) =
  Printf.sprintf
    "gen=%d proc=%d syncs=%d applied=%d/%d rollbacks=%d gas=%d sc=%d/%d mode=%s audits=%d"
    r.System.generated r.System.processed r.System.sync_count r.System.epochs_applied
    r.System.epochs_run r.System.rollbacks r.System.mc_gas_total
    r.System.sc_cumulative_bytes r.System.sc_stored_bytes r.System.final_mode
    r.System.twin_audits

let dir_digest dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f ->
         let b = Durable.Fsio.read_file (Filename.concat dir f) in
         Printf.sprintf "%s:%d:%08x" f (Bytes.length b) (Durable.Crc32.digest b))
  |> String.concat ";"

let test_retention_edge () =
  let n = Twin.retained_epochs in
  let op_counts = Hashtbl.create 16 in
  let worst_retained = ref 0 in
  let check_boundary (b : System.boundary) =
    match b.System.b_twin with
    | None -> Alcotest.fail "twin off"
    | Some tw ->
      let e = b.System.b_epoch in
      Alcotest.(check int)
        (Printf.sprintf "epoch %d: newest seals only" e)
        (Stdlib.min (e + 1) n)
        (List.length (Twin.epochs_sealed (Twin.view tw)));
      Hashtbl.replace op_counts e (Twin.op_count tw);
      (* Nothing older than the last few epochs' ops is kept. *)
      (match Hashtbl.find_opt op_counts (e - 4) with
      | Some older ->
        worst_retained := Stdlib.max !worst_retained (Twin.ops_retained tw);
        Alcotest.(check bool)
          (Printf.sprintf "epoch %d: %d ops retained of %d since epoch %d" e
             (Twin.ops_retained tw) (Twin.op_count tw - older) (e - 4))
          true
          (Twin.ops_retained tw <= Twin.op_count tw - older)
      | None -> ())
  in
  with_dir @@ fun ref_dir ->
  let r, _ =
    durable_to_completion ~at_boundary:check_boundary ~dir:ref_dir retention_cfg
  in
  Alcotest.(check bool)
    (Printf.sprintf "the scripted rollback and reorgs fired (%d)" r.System.rollbacks)
    true (r.System.rollbacks >= 2);
  Alcotest.(check bool) "custody" true r.System.custody_consistent;
  Alcotest.(check bool) "twin consistent" true r.System.twin_consistent;
  Alcotest.(check int) "every epoch applied" r.System.epochs_run r.System.epochs_applied;
  Alcotest.(check bool) "ops were released" true
    (!worst_retained < Hashtbl.fold (fun _ c acc -> Stdlib.max c acc) op_counts 0 / 2);
  (match r.System.twin_view with
  | Some v ->
    Alcotest.(check (list int)) "the newest epochs stay sealed"
      (List.init n (fun i -> r.System.epochs_run - n + 1 + i))
      (Twin.epochs_sealed v)
  | None -> Alcotest.fail "no twin view");
  (* Killed twice, mid-window and past the twin's retention, then
     resumed: byte-identical to the uninterrupted run. *)
  let crashing =
    { retention_cfg with
      Config.faults =
        { retention_cfg.Config.faults with
          Faults.Fault_plan.durability =
            { Faults.Fault_plan.crash_rate = 0.0;
              torn_write_rate = 1.0;
              crash_script = [ (3, 5); (n + 1, 8) ] } } }
  in
  with_dir @@ fun dir ->
  let r', crashes = durable_to_completion ~dir crashing in
  Alcotest.(check int) "both crashes fired" 2 crashes;
  Alcotest.(check string) "resumed run = uninterrupted run" (run_fingerprint r)
    (run_fingerprint r');
  Alcotest.(check string) "same bytes on disk" (dir_digest ref_dir) (dir_digest dir)

(* ------------------------------------------------------------------ *)
(* Drill verdicts                                                      *)
(* ------------------------------------------------------------------ *)

(* Break the [i]-th run, or every run. *)
let at i f = List.mapi (fun j x -> if j = i then f x else x)
let all = List.map

(* Every verdict of a drill holds on its runs, and each one fails on a
   copy of the runs broken in the field it reads. [breaks] lists one
   break per verdict, in the drill's order, so a verdict added without a
   break fails here. *)
let check_drill drill verdicts runs breaks =
  Alcotest.(check (list string)) (drill ^ ": every verdict holds") []
    (Experiments.failed verdicts runs);
  Alcotest.(check (list string)) (drill ^ ": one break per verdict")
    (List.map fst verdicts) (List.map fst breaks);
  List.iter
    (fun (name, break) ->
      let failed = Experiments.failed verdicts (break runs) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S fails when broken (failed: %s)" drill name
           (String.concat "; " failed))
        true (List.mem name failed))
    breaks

(* A drill table's verdicts over its runs at the paper's volumes. *)
let drill_runs make =
  let t = make ~scale:1.0 in
  (t.Experiments.verdicts, snd (Experiments.run_table t))

let test_chaos_verdicts () =
  let verdicts, runs = drill_runs Experiments.chaos in
  check_drill "chaos" verdicts runs
    [ ("twin audit passes", at 3 (fun r -> { r with System.twin_consistent = false }));
      ( "every epoch applied",
        at 2 (fun r -> { r with System.epochs_applied = r.System.epochs_run - 1 }) );
      ( "no fault at 0 %, some above",
        at 0 (fun r -> { r with System.faults_injected = [ ("net.drop", 1) ] }) );
      ( "recovery exercised",
        all (fun r ->
            { r with
              System.mass_syncs = 0; sync_retries = 0; degraded_signings = 0;
              rollbacks = 0 }) ) ]

let test_exit_drill_verdicts () =
  let verdicts, runs = drill_runs Experiments.exit_drill in
  let reconciled = (List.nth runs 1).System.reconciliation in
  check_drill "exit-drill" verdicts runs
    [ ("final modes", at 2 (fun r -> { r with System.final_mode = "normal" }));
      ( "exit conservation passes",
        at 1 (fun r -> { r with System.exit_conservation = false }) );
      ("twin audit passes", at 0 (fun r -> { r with System.twin_consistent = false }));
      ("custody passes", at 2 (fun r -> { r with System.custody_consistent = false }));
      ("exits served", at 0 (fun r -> { r with System.exits_served = 1 }));
      ("recovery latency", at 1 (fun r -> { r with System.recovery_latency = Some 0.0 }));
      ("reconciliation", at 2 (fun r -> { r with System.reconciliation = reconciled })) ]

let test_crash_drill_verdicts () =
  let drill = Experiments.crash_drill ~scale:1.0 in
  let rows = Experiments.run_crash_drill drill in
  let scene label f =
    List.map (fun d -> if d.Experiments.drill_label = label then f d else d)
  in
  check_drill "crash-drill" drill.Experiments.cd_verdicts rows
    [ ( "every scene byte-identical",
        scene "snapshot-bit-flip" (fun d -> { d with Experiments.drill_ok = false }) );
      ( "scene labels",
        scene "wal-torn-tail" (fun d -> { d with Experiments.drill_label = "wal-torn" }) );
      ( "every scripted death survived",
        scene "crash-script" (fun d ->
            { d with Experiments.drill_crashes = d.Experiments.drill_crashes - 1 }) );
      ( "every corruption detected",
        scene "wal-torn-tail" (fun d -> { d with Experiments.drill_detected = 0 }) );
      ("corrupt snapshots healed", all (fun d -> { d with Experiments.drill_healed = 0 })) ]

let test_twin_audit_verdicts () =
  let verdicts, runs = drill_runs Experiments.twin_audit in
  check_drill "twin-audit" verdicts runs
    [ ("twin verdict passes", at 0 (fun r -> { r with System.twin_consistent = false }));
      ( "every injection caught in its epoch",
        at 2 (fun r -> { r with System.twin_reports = [] }) );
      ("some run injects", all (fun r -> { r with System.twin_injections = [] }));
      ( "only the clean run is divergence-free",
        at 3 (fun r -> { r with System.twin_divergences = 0 }) );
      ( "some report bisected",
        all (fun r ->
            { r with
              System.twin_reports =
                List.map
                  (fun rep -> { rep with Twin.r_culprit = None })
                  r.System.twin_reports }) );
      ("every run audited", at 4 (fun r -> { r with System.twin_audits = 0 })) ]

let () =
  Alcotest.run "system"
    [ ( "nominal",
        [ Alcotest.test_case "full run" `Slow test_nominal_run;
          Alcotest.test_case "latency sanity" `Slow test_latency_sanity;
          Alcotest.test_case "pruning bounds growth" `Slow test_pruning_bounds_sidechain;
          Alcotest.test_case "deterministic" `Slow test_deterministic_given_seed;
          Alcotest.test_case "committee rotation" `Slow test_committee_rotation;
          Alcotest.test_case "deposit gas" `Slow test_deposit_gas_matches_paper;
          Alcotest.test_case "threshold signing" `Slow test_threshold_signing_mode;
          Alcotest.test_case "signed traffic" `Slow test_signed_traffic_verified ] );
      ( "message-level consensus",
        [ Alcotest.test_case "system mode" `Slow test_message_level_consensus_mode;
          Alcotest.test_case "self-audit" `Slow test_self_audit_mode;
          Alcotest.test_case "committee faults" `Quick test_committee_round_faults;
          Alcotest.test_case "latency model committee size" `Slow
            test_latency_model_committee_size ] );
      ( "interruptions",
        [ Alcotest.test_case "silent leader" `Slow test_silent_sync_leader_mass_sync;
          Alcotest.test_case "invalid sync" `Slow test_invalid_sync_rejected_then_recovered;
          Alcotest.test_case "mainchain rollback" `Slow test_mainchain_rollback_recovered;
          Alcotest.test_case "multiple" `Slow test_multiple_interruptions;
          Alcotest.test_case "censoring committee" `Slow test_censoring_committee_liveness ] );
      ( "congestion",
        [ Alcotest.test_case "latency grows" `Slow test_congestion_raises_latency;
          Alcotest.test_case "deadlines expire" `Slow test_deadlines_expire_under_congestion;
          Alcotest.test_case "throughput vs block size" `Slow
            test_throughput_scales_with_block_size ] );
      ( "traffic",
        [ Alcotest.test_case "distribution" `Quick test_traffic_distribution;
          Alcotest.test_case "arrival rate" `Quick test_arrival_rate_formula ] );
      ( "watchdog",
        [ Alcotest.test_case "nominal stays normal" `Slow test_nominal_stays_normal;
          Alcotest.test_case "permanent loss halts and exits" `Slow
            test_permanent_loss_halts_and_exits;
          Alcotest.test_case "starvation halts then recovers" `Slow
            test_starvation_halts_then_recovers;
          Alcotest.test_case "deterministic" `Slow test_watchdog_run_deterministic;
          Alcotest.test_case "second halt clears recovery" `Slow
            test_second_halt_clears_recovery ] );
      ("roundtrip", [ sidechain_to_tokenbank_roundtrip_prop ]);
      ( "baseline",
        [ Alcotest.test_case "runs" `Slow test_baseline_runs;
          Alcotest.test_case "ammboost wins" `Slow test_ammboost_beats_baseline ] );
      ( "mainchain",
        [ Alcotest.test_case "blocks and latency" `Quick test_eth_block_production_and_latency;
          Alcotest.test_case "gas limit" `Quick test_eth_gas_limit_congestion;
          Alcotest.test_case "rollback" `Quick test_eth_rollback_drops_tags;
          eth_drain_order_prop;
          Alcotest.test_case "mined txs released" `Quick test_eth_mined_txs_released ] );
      ( "memory",
        [ Alcotest.test_case "bounded growth" `Slow test_bounded_growth;
          Alcotest.test_case "retention edge" `Slow test_retention_edge ] );
      ( "drills",
        [ Alcotest.test_case "chaos" `Slow test_chaos_verdicts;
          Alcotest.test_case "exit drill" `Slow test_exit_drill_verdicts;
          Alcotest.test_case "crash drill" `Slow test_crash_drill_verdicts;
          Alcotest.test_case "twin audit" `Slow test_twin_audit_verdicts ] ) ]
