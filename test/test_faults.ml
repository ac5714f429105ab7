(* Fault-plan engine: deterministic seeded schedules, idempotent
   injection accounting, per-layer caps, network chaos closures; the
   WAL replay cross-check (agreement, divergence detection, rollback
   truncation, and a durable run's log landing on the twin's seal); and
   the acceptance scenario — a seeded all-layer chaos run that recovers
   every fault, passes the twin audit and reproduces the identical
   schedule from the same seed. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Erc20 = Mainchain.Erc20
module Bls = Amm_crypto.Bls
module Network = Consensus.Network
module Fault_plan = Faults.Fault_plan
open Tokenbank

let u = U256.of_string
let one_e18 = u "1000000000000000000"
let one_e21 = u "1000000000000000000000"

(* ------------------------------------------------------------------ *)
(* Fault plan                                                          *)
(* ------------------------------------------------------------------ *)

(* A fixed sweep over decision coordinates, collecting every answer so
   two plans can be compared wholesale. *)
let sweep plan =
  let acc = Buffer.create 256 in
  for epoch = 0 to 19 do
    Buffer.add_string acc
      (Printf.sprintf "e%d:%b%b%b%b" epoch
         (Fault_plan.silent_leader plan ~epoch)
         (Fault_plan.corrupt_sync plan ~epoch)
         (Fault_plan.congested plan ~epoch)
         (Fault_plan.byzantine_proposer plan ~epoch ~round:0));
    (match Fault_plan.reorg_depth plan ~epoch with
    | Some d -> Buffer.add_string acc (Printf.sprintf "r%d" d)
    | None -> Buffer.add_char acc '-');
    for attempt = 0 to 2 do
      Buffer.add_string acc
        (if Fault_plan.sync_dropped plan ~epoch ~attempt then "D" else ".")
    done;
    List.iter
      (fun i -> Buffer.add_string acc (Printf.sprintf "w%d" i))
      (Fault_plan.withheld_shares plan ~epoch ~n:13 ~max_withheld:4);
    List.iter
      (fun i -> Buffer.add_string acc (Printf.sprintf "x%d" i))
      (Fault_plan.corrupted_shares plan ~epoch ~n:13 ~max_corrupted:4);
    List.iter
      (fun i -> Buffer.add_string acc (Printf.sprintf "c%d" i))
      (Fault_plan.crashed_members plan ~epoch ~round:1 ~members:13 ~max_faulty:4)
  done;
  Buffer.contents acc

let test_none_never_injects () =
  Alcotest.(check bool) "none inactive" false (Fault_plan.active Fault_plan.none);
  Alcotest.(check bool) "zero intensity inactive" false
    (Fault_plan.active (Fault_plan.chaos ~intensity:0.0 ()));
  Alcotest.(check bool) "default chaos active" true
    (Fault_plan.active (Fault_plan.chaos ()));
  let plan = Fault_plan.create ~seed:"quiet" Fault_plan.none in
  let s = sweep plan in
  Alcotest.(check bool) "no decisions fire" false
    (String.exists (function 'D' | 'w' | 'x' | 'c' | 'r' -> true | _ -> false) s);
  Alcotest.(check bool) "no net chaos" true
    (Fault_plan.net_chaos plan ~epoch:0 ~round:0 ~members:7 = None);
  Alcotest.(check int) "nothing counted" 0 (Fault_plan.total_injected plan);
  Alcotest.(check (list (pair string int))) "empty ledger" []
    (Fault_plan.injected plan)

let test_same_seed_same_schedule () =
  let spec = Fault_plan.chaos ~intensity:0.3 () in
  let a = Fault_plan.create ~seed:"twin" spec in
  let b = Fault_plan.create ~seed:"twin" spec in
  Alcotest.(check string) "identical decision sweep" (sweep a) (sweep b);
  Alcotest.(check (list (pair string int))) "identical injection ledger"
    (Fault_plan.injected a) (Fault_plan.injected b);
  Alcotest.(check bool) "schedule nonempty at this intensity" true
    (Fault_plan.total_injected a > 0)

let test_different_seed_different_schedule () =
  let spec = Fault_plan.chaos ~intensity:0.3 () in
  let a = Fault_plan.create ~seed:"seed-a" spec in
  let b = Fault_plan.create ~seed:"seed-b" spec in
  (* 20 epochs × a dozen draws each: a collision would need hundreds of
     independent coin flips to agree. *)
  Alcotest.(check bool) "schedules diverge" true (sweep a <> sweep b)

let test_decisions_idempotent () =
  let plan = Fault_plan.create ~seed:"idem" (Fault_plan.chaos ~intensity:0.5 ()) in
  let first = sweep plan in
  let counted = Fault_plan.total_injected plan in
  Alcotest.(check string) "same answers on re-query" first (sweep plan);
  Alcotest.(check int) "injections counted once" counted
    (Fault_plan.total_injected plan)

let test_caps_respected () =
  let plan = Fault_plan.create ~seed:"caps" (Fault_plan.chaos ~intensity:9.0 ()) in
  for epoch = 0 to 9 do
    let w = Fault_plan.withheld_shares plan ~epoch ~n:10 ~max_withheld:3 in
    Alcotest.(check bool) "withheld within cap" true (List.length w <= 3);
    Alcotest.(check bool) "withheld indices 1-based distinct" true
      (List.for_all (fun i -> i >= 1 && i <= 10) w
      && List.length (List.sort_uniq compare w) = List.length w);
    let x = Fault_plan.corrupted_shares plan ~epoch ~n:10 ~max_corrupted:2 in
    Alcotest.(check bool) "corrupted within cap" true (List.length x <= 2);
    Alcotest.(check bool) "corrupted indices 1-based distinct" true
      (List.for_all (fun i -> i >= 1 && i <= 10) x
      && List.length (List.sort_uniq compare x) = List.length x);
    let c = Fault_plan.crashed_members plan ~epoch ~round:0 ~members:10 ~max_faulty:3 in
    Alcotest.(check bool) "crashes within f" true (List.length c <= 3);
    Alcotest.(check bool) "crash ids 0-based distinct" true
      (List.for_all (fun i -> i >= 0 && i < 10) c
      && List.length (List.sort_uniq compare c) = List.length c);
    match Fault_plan.reorg_depth plan ~epoch with
    | Some d ->
      Alcotest.(check bool) "reorg depth in [1, max]" true
        (d >= 1 && d <= (Fault_plan.spec plan).Fault_plan.mainchain.max_reorg_depth)
    | None -> ()
  done

let test_net_chaos_deterministic () =
  let spec = Fault_plan.chaos ~intensity:0.5 () in
  let trace seed =
    let plan = Fault_plan.create ~seed spec in
    match Fault_plan.net_chaos plan ~epoch:2 ~round:3 ~members:7 with
    | None -> Alcotest.fail "expected a chaos closure at nonzero rates"
    | Some f ->
      let b = Buffer.create 128 in
      for src = 0 to 6 do
        for dst = 0 to 6 do
          if src <> dst then
            Buffer.add_string b
              (match f ~now:(float_of_int (src + dst)) ~src ~dst with
              | Network.Deliver -> "."
              | Network.Drop -> "x"
              | Network.Duplicate d -> Printf.sprintf "2(%.6f)" d
              | Network.Delay d -> Printf.sprintf "+(%.6f)" d)
        done
      done;
      Buffer.contents b
  in
  Alcotest.(check string) "same seed, same per-message fates"
    (trace "net-twin") (trace "net-twin");
  Alcotest.(check bool) "some messages disturbed" true
    (String.exists (fun ch -> ch <> '.') (trace "net-twin"))

(* ------------------------------------------------------------------ *)
(* WAL replay cross-check                                              *)
(* ------------------------------------------------------------------ *)

let alice = Address.of_label "alice"
let bob = Address.of_label "bob"

type env = {
  bank : Token_bank.t;
  keys : (Bls.secret_key * Bls.public_key) array;
  pool_id : int;
  mutable log : Durable.Record.t list;  (* newest first *)
}

let flash_fee_pips = 3000

let make_env () =
  let rng = Amm_crypto.Rng.create "replay-oracle-tests" in
  let erc0 = Erc20.deploy (Chain.Token.make ~id:0 ~symbol:"TKA") in
  let erc1 = Erc20.deploy (Chain.Token.make ~id:1 ~symbol:"TKB") in
  let keys = Array.init 8 (fun _ -> Bls.keygen rng) in
  let bank = Token_bank.deploy ~token0:erc0 ~token1:erc1 ~genesis_committee_vk:(snd keys.(0)) in
  let pool_id = Token_bank.create_pool bank ~flash_fee_pips in
  List.iter
    (fun who ->
      Erc20.mint erc0 who one_e21;
      Erc20.mint erc1 who one_e21;
      Erc20.approve erc0 ~owner:who ~spender:(Token_bank.address bank) U256.max_value;
      Erc20.approve erc1 ~owner:who ~spender:(Token_bank.address bank) U256.max_value)
    [ alice; bob ];
  { bank; keys; pool_id; log = [] }

let log env r = env.log <- r :: env.log
let ops env = List.length (Wal_replay.surviving (List.rev env.log))

let deposit env ~user ~for_epoch ~amount0 ~amount1 =
  (match Token_bank.deposit env.bank ~user ~for_epoch ~amount0 ~amount1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  log env (Durable.Record.Op (Durable.Record.Deposit { user; for_epoch; amount0; amount1 }))

let signed_payload ?(users = []) env ~epoch ~balance0 ~balance1 =
  let p =
    { Sync_payload.epoch; pool = env.pool_id; pool_balance0 = balance0;
      pool_balance1 = balance1; users; positions = [];
      next_committee_vk = snd env.keys.(epoch + 1) }
  in
  (p, Bls.sign (fst env.keys.(epoch)) (Sync_payload.signing_bytes p))

let apply_sync env signed =
  (match Token_bank.sync env.bank ~signed with
  | Ok _ -> ()
  | Error e ->
    Alcotest.fail ("sync rejected: " ^ Token_bank.rejection_to_string e));
  log env (Durable.Record.Op (Durable.Record.Sync signed))

let verify env =
  Result.bind
    (Wal_replay.replay ~genesis_committee_vk:(snd env.keys.(0)) ~flash_fee_pips
       (List.rev env.log))
    (Wal_replay.agrees ~live:env.bank)

let test_replay_agrees_on_faithful_log () =
  let env = make_env () in
  deposit env ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:one_e18;
  deposit env ~user:bob ~for_epoch:0 ~amount0:one_e18 ~amount1:U256.zero;
  let users =
    [ { Sync_payload.user = alice; payin0 = one_e18; payin1 = one_e18;
        payout0 = U256.zero; payout1 = U256.zero } ]
  in
  apply_sync env [ signed_payload ~users env ~epoch:0 ~balance0:one_e18 ~balance1:one_e18 ];
  Alcotest.(check int) "three ops recorded" 3 (ops env);
  match verify env with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replay should agree: %s" e

let test_replay_detects_divergence () =
  let env = make_env () in
  deposit env ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:one_e18;
  (* A phantom op the live chain never executed. *)
  log env
    (Durable.Record.Op
       (Durable.Record.Deposit
          { user = bob; for_epoch = 0; amount0 = one_e18; amount1 = U256.zero }));
  match verify env with
  | Ok () -> Alcotest.fail "replay must flag the phantom deposit"
  | Error _ -> ()

let test_replay_truncate_tracks_rollback () =
  let env = make_env () in
  deposit env ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:one_e18;
  let mark = ops env in
  let cp = Token_bank.checkpoint env.bank in
  (* A fork's worth of history that later falls off the chain. *)
  deposit env ~user:bob ~for_epoch:0 ~amount0:one_e18 ~amount1:one_e18;
  let users =
    [ { Sync_payload.user = alice; payin0 = one_e18; payin1 = one_e18;
        payout0 = U256.zero; payout1 = U256.zero } ]
  in
  apply_sync env [ signed_payload ~users env ~epoch:0 ~balance0:one_e18 ~balance1:one_e18 ];
  Alcotest.(check int) "fork ops recorded" 3 (ops env);
  Token_bank.restore env.bank cp;
  log env (Durable.Record.Truncate { keep = mark });
  Alcotest.(check int) "log truncated to the mark" mark (ops env);
  (match verify env with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replay should agree after rollback: %s" e);
  (* The surviving history can still be extended and re-checked. *)
  apply_sync env [ signed_payload ~users env ~epoch:0 ~balance0:one_e18 ~balance1:one_e18 ];
  match verify env with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replay should agree after re-sync: %s" e

(* A durable run through a scripted reorg: the WAL it leaves, folded
   through the replayer, must land on the state twin's last sealed bank
   image. *)
let test_wal_replay_matches_twin () =
  let module Config = Ammboost.Config in
  let module System = Ammboost.System in
  let cfg =
    { Config.default with
      epochs = 4;
      daily_volume = 20_000;
      users = 8;
      miners = 20;
      committee_size = 7;
      max_faulty = 2;
      mc_confirmations = 2;
      faults =
        { Fault_plan.none with
          Fault_plan.interruptions = [ Fault_plan.Rollback 2 ] };
      seed = "wal-replay-twin" }
  in
  Durable.Fsio.with_temp_dir "ammboost-test-wal-replay" @@ fun dir ->
  (* No snapshots, so no WAL segment is pruned: the log reaches genesis. *)
  let session = Durable.Session.open_ ~dir ~snapshot_every:0 () in
  let r = System.run ~durable:session cfg in
  let scan = Durable.Recovery.scan ~dir in
  let records = Array.to_list scan.Durable.Recovery.records in
  Alcotest.(check int) "log reaches genesis" 0 scan.Durable.Recovery.skip_until;
  Alcotest.(check bool) "rollback happened" true (r.System.rollbacks > 0);
  Alcotest.(check bool) "WAL holds a Truncate" true
    (List.exists (function Durable.Record.Truncate _ -> true | _ -> false) records);
  (* The genesis committee key, derived as System.create does. *)
  let _, genesis_committee_vk =
    let module Rng = Amm_crypto.Rng in
    Bls.keygen (Rng.split (Rng.split (Rng.create cfg.Config.seed) "keys") "committee-0")
  in
  let view = Option.get r.System.twin_view in
  let last = List.fold_left max 0 (Twin.epochs_sealed view) in
  match
    Wal_replay.replay ~genesis_committee_vk ~flash_fee_pips:Config.fee_pips records
  with
  | Error e -> Alcotest.failf "WAL replay rejected an op: %s" e
  | Ok replayed ->
    Alcotest.(check (option string)) "replayed bank.meta = twin seal"
      (Option.map Bytes.to_string (Twin.read_at view ~epoch:last Twin.Bank_meta))
      (Some (Bytes.to_string (Durable.State_codec.bank_meta_bytes replayed)))

(* ------------------------------------------------------------------ *)
(* Acceptance: seeded all-layer chaos run                              *)
(* ------------------------------------------------------------------ *)

open Ammboost

let chaos_cfg =
  { Config.default with
    epochs = 3;
    daily_volume = 30_000;
    users = 10;
    miners = 40;
    committee_size = 13;
    max_faulty = 4;
    threshold_signing = true;
    message_level_consensus = true;
    mc_confirmations = 3;
    faults = Fault_plan.chaos ~intensity:0.15 ();
    seed = "chaos-accept" }

let chaos_result = lazy (System.run chaos_cfg)

let test_corrupted_shares_caught_at_crypto_layer () =
  (* Only share corruption enabled: every injected corruption must be
     caught by the pairing check on partials, signing must still land
     every epoch, and the twin audit must stay clean. *)
  let faults =
    { Fault_plan.none with
      committee = { withhold_rate = 0.0; corrupt_rate = 0.6 } }
  in
  let r =
    System.run
      { chaos_cfg with faults; seed = "corrupt-only"; epochs = 3 }
  in
  let injected =
    Option.value ~default:0
      (List.assoc_opt "committee.share_corrupted" r.System.faults_injected)
  in
  Alcotest.(check bool) "corruptions injected" true (injected > 0);
  Alcotest.(check int) "every corruption caught by verify_partial" injected
    r.System.corrupted_partials;
  Alcotest.(check int) "degraded but signed: all epochs applied"
    r.System.epochs_run r.System.epochs_applied;
  Alcotest.(check bool) "degraded signings recorded" true
    (r.System.degraded_signings > 0);
  Alcotest.(check bool) "twin audit clean" true r.System.twin_consistent

let test_chaos_run_recovers_everything () =
  let r = Lazy.force chaos_result in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 r.System.faults_injected in
  Alcotest.(check bool) "faults actually injected" true (total > 0);
  (* Every layer the spec arms shows up in the ledger at this intensity. *)
  Alcotest.(check bool) "network faults present" true
    (List.exists (fun (l, _) -> String.length l >= 4 && String.sub l 0 4 = "net.")
       r.System.faults_injected);
  Alcotest.(check int) "every epoch applied despite faults"
    r.System.epochs_run r.System.epochs_applied;
  Alcotest.(check bool) "recovery machinery exercised" true
    (r.System.sync_retries + r.System.mass_syncs + r.System.rollbacks
     + r.System.degraded_signings > 0);
  Alcotest.(check bool) "custody invariant" true r.System.custody_consistent;
  Alcotest.(check bool) "twin audit" true r.System.twin_consistent

let test_chaos_run_reproducible () =
  let a = Lazy.force chaos_result in
  let b = System.run chaos_cfg in
  Alcotest.(check (list (pair string int))) "identical fault schedule"
    a.System.faults_injected b.System.faults_injected;
  Alcotest.(check int) "identical retries" a.System.sync_retries b.System.sync_retries;
  Alcotest.(check int) "identical mass-syncs" a.System.mass_syncs b.System.mass_syncs;
  Alcotest.(check int) "identical rollbacks" a.System.rollbacks b.System.rollbacks;
  Alcotest.(check int) "identical degraded signings" a.System.degraded_signings
    b.System.degraded_signings;
  Alcotest.(check int) "identical corrupted partials" a.System.corrupted_partials
    b.System.corrupted_partials;
  Alcotest.(check int) "identical traffic" a.System.processed b.System.processed;
  Alcotest.(check (float 1e-9)) "identical latency" a.System.mean_payout_latency
    b.System.mean_payout_latency

(* Each run counts into a sink of its own: two runs at once must end
   with the solo run's snapshot, and every counter-backed result field
   must be its series in the run's own registry. *)
let test_concurrent_runs_count_apart () =
  let solo = Lazy.force chaos_result in
  Alcotest.(check bool) "retries, degraded signings, corrupted partials" true
    (solo.System.sync_retries > 0 && solo.System.degraded_signings > 0
     && solo.System.corrupted_partials > 0);
  let snapshot (r : System.result) =
    Telemetry.Metrics.to_json_string r.System.telemetry.Telemetry.Report.metrics
  in
  let a, b =
    Parallel.run_pair ~domains:2
      (fun () -> System.run chaos_cfg)
      (fun () -> System.run chaos_cfg)
  in
  List.iter
    (fun (run, (r : System.result)) ->
      Alcotest.(check string) (run ^ ": snapshot = solo") (snapshot solo) (snapshot r);
      let reg = r.System.telemetry.Telemetry.Report.metrics in
      let doc =
        match Telemetry.Json.parse (snapshot r) with
        | Ok doc -> doc
        | Error e -> Alcotest.fail e
      in
      let counter name =
        match
          Option.bind (Telemetry.Json.member name doc) (Telemetry.Json.member "value")
        with
        | Some (Telemetry.Json.Jnumber v) -> int_of_float v
        | _ -> Alcotest.failf "%s: no counter %s" run name
      in
      let histogram name =
        match Telemetry.Metrics.find_histogram reg name with
        | Some h -> h
        | None -> Alcotest.failf "%s: no histogram %s" run name
      in
      List.iter
        (fun (series, field) ->
          Alcotest.(check int) (Printf.sprintf "%s: %s" run series) (counter series) field)
        [ ("txs.processed", r.System.processed); ("txs.rejected", r.System.rejected);
          ("txs.swap", r.System.swaps); ("txs.mint", r.System.mints);
          ("txs.burn", r.System.burns); ("txs.collect", r.System.collects);
          ("recovery.sync_retries", r.System.sync_retries);
          ("sync.mass", r.System.mass_syncs);
          ("interruption.rollbacks", r.System.rollbacks);
          ("recovery.degraded_signing", r.System.degraded_signings);
          ("recovery.corrupted_partial", r.System.corrupted_partials);
          ("monitor.audits", r.System.monitor_audits);
          ("twin.audits", r.System.twin_audits) ];
      Alcotest.(check (float 0.0)) (run ^ ": latency.tx.sidechain mean")
        (Telemetry.Histogram.mean (histogram "latency.tx.sidechain"))
        r.System.mean_tx_latency;
      Alcotest.(check int) (run ^ ": summary_block.bytes max")
        (int_of_float (Telemetry.Histogram.max_value (histogram "summary_block.bytes")))
        r.System.max_summary_block_bytes)
    [ ("first", a); ("second", b) ]

(* ------------------------------------------------------------------ *)
(* Scripted scenarios                                                  *)
(* ------------------------------------------------------------------ *)

let scenario_spec scenario =
  { Fault_plan.none with Fault_plan.scenario }

let test_scenario_activates_plan () =
  Alcotest.(check bool) "none inactive" false (Fault_plan.active Fault_plan.none);
  Alcotest.(check bool) "starvation active" true
    (Fault_plan.active
       (scenario_spec
          { Fault_plan.quorum_starvation = Some (0, 1); committee_loss = None }));
  Alcotest.(check bool) "loss active" true
    (Fault_plan.active
       (scenario_spec
          { Fault_plan.quorum_starvation = None; committee_loss = Some 3 }))

let test_starvation_window_half_open () =
  let plan =
    Fault_plan.create ~seed:"w"
      (scenario_spec
         { Fault_plan.quorum_starvation = Some (2, 5); committee_loss = None })
  in
  List.iter
    (fun (epoch, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "starved at %d" epoch)
        want
        (Fault_plan.sync_starved plan ~epoch))
    [ (0, false); (1, false); (2, true); (3, true); (4, true); (5, false); (9, false) ]

let test_starvation_forever () =
  let plan =
    Fault_plan.create ~seed:"w"
      (scenario_spec
         { Fault_plan.quorum_starvation = Some (1, max_int); committee_loss = None })
  in
  Alcotest.(check bool) "before" false (Fault_plan.sync_starved plan ~epoch:0);
  Alcotest.(check bool) "far future" true (Fault_plan.sync_starved plan ~epoch:1_000_000)

let test_committee_loss_permanent () =
  let plan =
    Fault_plan.create ~seed:"w"
      (scenario_spec
         { Fault_plan.quorum_starvation = None; committee_loss = Some 4 })
  in
  List.iter
    (fun (epoch, want) ->
      Alcotest.(check bool) (Printf.sprintf "lost at %d" epoch) want
        (Fault_plan.committee_lost plan ~epoch))
    [ (0, false); (3, false); (4, true); (5, true); (100, true) ]

let test_scenario_is_seed_independent () =
  (* Scenarios are scripted windows, not probabilistic draws: any two
     seeds agree on every decision. *)
  let spec =
    scenario_spec
      { Fault_plan.quorum_starvation = Some (2, 5); committee_loss = Some 6 }
  in
  let a = Fault_plan.create ~seed:"seed-a" spec in
  let b = Fault_plan.create ~seed:"seed-b" spec in
  for epoch = 0 to 10 do
    Alcotest.(check bool)
      (Printf.sprintf "starved agree at %d" epoch)
      (Fault_plan.sync_starved a ~epoch)
      (Fault_plan.sync_starved b ~epoch);
    Alcotest.(check bool)
      (Printf.sprintf "lost agree at %d" epoch)
      (Fault_plan.committee_lost a ~epoch)
      (Fault_plan.committee_lost b ~epoch)
  done

(* Each scripted interruption fires on its own epoch only, through the
   decision of its drawn counterpart, and counts once however often the
   decision is asked. *)
let test_scripted_interruptions () =
  let spec =
    { Fault_plan.none with
      Fault_plan.interruptions =
        [ Fault_plan.Silent_leader 2; Fault_plan.Invalid_sync 3;
          Fault_plan.Rollback 4; Fault_plan.Censoring 5 ] }
  in
  Alcotest.(check bool) "scripted plan active" true (Fault_plan.active spec);
  let plan = Fault_plan.create ~seed:"scripted" spec in
  let fires decide at =
    List.filter (fun epoch -> decide ~epoch) [ at - 1; at; at + 1 ]
  in
  for _ = 1 to 2 do
    Alcotest.(check (list int)) "silent leader" [ 2 ]
      (fires (Fault_plan.silent_leader plan) 2);
    Alcotest.(check (list int)) "invalid sync" [ 3 ]
      (fires (Fault_plan.corrupt_sync plan) 3);
    Alcotest.(check (list int)) "censoring" [ 5 ] (fires (Fault_plan.censoring plan) 5);
    Alcotest.(check (list (option int))) "rollback depth" [ None; Some 1; None ]
      (List.map (fun epoch -> Fault_plan.reorg_depth plan ~epoch) [ 3; 4; 5 ])
  done;
  (* The caller counts a reorg when it fires, so only three labels. *)
  Alcotest.(check (list (pair string int))) "each counted once"
    [ ("committee.censoring", 1); ("mainchain.corrupt_sync", 1);
      ("mainchain.silent_leader", 1) ]
    (Fault_plan.injected plan)

let () =
  Alcotest.run "faults"
    [ ( "fault_plan",
        [ Alcotest.test_case "none never injects" `Quick test_none_never_injects;
          Alcotest.test_case "same seed same schedule" `Quick test_same_seed_same_schedule;
          Alcotest.test_case "different seed diverges" `Quick
            test_different_seed_different_schedule;
          Alcotest.test_case "decisions idempotent" `Quick test_decisions_idempotent;
          Alcotest.test_case "caps respected" `Quick test_caps_respected;
          Alcotest.test_case "net chaos deterministic" `Quick test_net_chaos_deterministic ] );
      ( "scenarios",
        [ Alcotest.test_case "activate the plan" `Quick test_scenario_activates_plan;
          Alcotest.test_case "starvation window half-open" `Quick
            test_starvation_window_half_open;
          Alcotest.test_case "starvation forever" `Quick test_starvation_forever;
          Alcotest.test_case "committee loss permanent" `Quick
            test_committee_loss_permanent;
          Alcotest.test_case "seed independent" `Quick
            test_scenario_is_seed_independent;
          Alcotest.test_case "scripted interruptions" `Quick
            test_scripted_interruptions ] );
      ( "replay_oracle",
        [ Alcotest.test_case "faithful log agrees" `Quick test_replay_agrees_on_faithful_log;
          Alcotest.test_case "divergence detected" `Quick test_replay_detects_divergence;
          Alcotest.test_case "truncate tracks rollback" `Quick
            test_replay_truncate_tracks_rollback;
          Alcotest.test_case "durable WAL matches twin seal" `Quick
            test_wal_replay_matches_twin ] );
      ( "chaos_acceptance",
        [ Alcotest.test_case "corrupted shares caught" `Quick
            test_corrupted_shares_caught_at_crypto_layer;
          Alcotest.test_case "recovers and replays" `Quick test_chaos_run_recovers_everything;
          Alcotest.test_case "seed reproduces schedule" `Quick test_chaos_run_reproducible;
          Alcotest.test_case "concurrent runs count apart" `Quick
            test_concurrent_runs_count_apart ] ) ]
