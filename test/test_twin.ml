(* The state twin: unit-level audit semantics (clean pass, exact
   bisection to the culprit op index, out-of-band attribution, replica
   rejections, reorg symmetry, time travel) — then
   system-level equivalence: twin vs live over random fault
   interleavings (QCheck over chaos intensity and seed, covering halts,
   exits, reconciles and reorgs) with zero false positives, and scripted
   state corruption always detected in the epoch it lands. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Erc20 = Mainchain.Erc20
module Bls = Amm_crypto.Bls
module Token_bank = Tokenbank.Token_bank
module Sync_payload = Tokenbank.Sync_payload
module State_codec = Durable.State_codec
open Ammboost

let u = U256.of_string
let one_e18 = u "1000000000000000000"
let one_e21 = u "1000000000000000000000"

let alice = Address.of_label "alice"
let bob = Address.of_label "bob"
let carol = Address.of_label "carol"

(* ------------------------------------------------------------------ *)
(* Unit harness: a twin plus a mirror bank standing in for the live
   side. The mirror is deployed with the same genesis vk and pool fee,
   so as long as it sees the same op stream its meta section is
   byte-identical to the replica's — exactly the property the audit
   checks in production.                                                *)
(* ------------------------------------------------------------------ *)

type tenv = {
  tw : Twin.t;
  mirror : Token_bank.t;
  merc0 : Erc20.t;
  merc1 : Erc20.t;
  keys : (Bls.secret_key * Bls.public_key) array;
}

let make_env () =
  let rng = Amm_crypto.Rng.create "twin-tests" in
  let keys = Array.init 8 (fun _ -> Bls.keygen rng) in
  let vk = snd keys.(0) in
  let tw = Twin.create ~seed:"twin-tests" ~genesis_committee_vk:vk ~flash_fee_pips:3000 in
  let merc0 = Erc20.deploy (Chain.Token.make ~id:0 ~symbol:"TKA") in
  let merc1 = Erc20.deploy (Chain.Token.make ~id:1 ~symbol:"TKB") in
  let mirror = Token_bank.deploy ~token0:merc0 ~token1:merc1 ~genesis_committee_vk:vk in
  ignore (Token_bank.create_pool mirror ~flash_fee_pips:3000);
  List.iter
    (fun who ->
      Erc20.mint merc0 who one_e21;
      Erc20.mint merc1 who one_e21;
      Erc20.approve merc0 ~owner:who ~spender:(Token_bank.address mirror) U256.max_value;
      Erc20.approve merc1 ~owner:who ~spender:(Token_bank.address mirror) U256.max_value)
    [ alice; bob; carol ];
  { tw; mirror; merc0; merc1; keys }

let scalars = Bytes.of_string "pool-scalar-section"

(* Live closures over the mirror plus explicit sidechain tables. *)
let live ?(dep = fun _ -> None) ?(dep_dirty = fun () -> [])
    ?(pool_writes = fun () -> ([], [])) ?(pool_scalars = fun () -> scalars)
    ?(bank_meta = None) env () =
  { Twin.live_dep = dep;
    live_dep_dirty = dep_dirty;
    live_pool_pos = (fun _ -> None);
    live_pool_tick = (fun _ -> None);
    live_pool_writes = pool_writes;
    live_pool_scalars = pool_scalars;
    live_bank_meta =
      (match bank_meta with
      | Some f -> f
      | None -> fun () -> State_codec.bank_meta_bytes env.mirror);
    live_bank_pos = (fun _ -> None);
    live_bank_dirty = (fun () -> []) }

let seed_scalars env =
  Twin.record env.tw ~label:"seed" [ (Twin.Pool_scalars, Some scalars) ]

let dep_mirror env who amt =
  match Token_bank.deposit env.mirror ~user:who ~for_epoch:0 ~amount0:amt ~amount1:amt with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let dep_both env who amt =
  Twin.apply env.tw
    (Durable.Record.Deposit { user = who; for_epoch = 0; amount0 = amt; amount1 = amt });
  dep_mirror env who amt

(* ------------------------------------------------------------------ *)
(* Audit semantics                                                     *)
(* ------------------------------------------------------------------ *)

let test_clean_audit () =
  let env = make_env () in
  seed_scalars env;
  let row = Bytes.make 192 'a' in
  Twin.record env.tw ~label:"swap" [ (Twin.Dep_row alice, Some row) ];
  dep_both env alice one_e18;
  let lv =
    live env
      ~dep:(fun a -> if Address.equal a alice then Some row else None)
      ~dep_dirty:(fun () -> [ alice ])
      ()
  in
  Alcotest.(check (list string)) "no reports" []
    (List.map Twin.report_to_string (Twin.audit env.tw ~epoch:0 lv));
  Alcotest.(check (list int)) "one audit sealed" [ 0 ]
    (Twin.epochs_sealed (Twin.view env.tw))

let test_bisects_exact_op_index () =
  let env = make_env () in
  seed_scalars env;
  let row_a = Bytes.make 192 'a' and row_b = Bytes.make 192 'b' in
  let row_c = Bytes.make 192 'c' in
  (* Global indices: 0 = seed, 1..3 below. *)
  Twin.record env.tw ~label:"swap" [ (Twin.Dep_row alice, Some row_a) ];
  Twin.record env.tw ~label:"mint" [ (Twin.Dep_row alice, Some row_b) ];
  Twin.record env.tw ~label:"swap" [ (Twin.Dep_row bob, Some row_c) ];
  let corrupted = Bytes.copy row_b in
  Bytes.set corrupted 7 '\255';
  let lv =
    live env
      ~dep:(fun a ->
        if Address.equal a alice then Some corrupted
        else if Address.equal a bob then Some row_c
        else None)
      ~dep_dirty:(fun () -> [ alice; bob ])
      ()
  in
  match Twin.audit env.tw ~epoch:0 lv with
  | [ r ] ->
    Alcotest.(check string) "key" ("dep:" ^ Address.to_hex alice)
      (Twin.key_to_string r.Twin.r_key);
    (* The culprit is the *last* op that wrote the row — global index 2,
       not the earlier write at index 1. *)
    Alcotest.(check (option (pair int string))) "exact culprit op"
      (Some (2, "mint")) r.Twin.r_culprit;
    Alcotest.(check bool) "expected is the op's after-image" true
      (r.Twin.r_expected = Some row_b);
    Alcotest.(check bool) "actual is the live bytes" true
      (r.Twin.r_actual = Some corrupted)
  | rs ->
    Alcotest.fail
      (Printf.sprintf "expected 1 report, got %d" (List.length rs))

let test_out_of_band_has_no_culprit () =
  let env = make_env () in
  seed_scalars env;
  (* Nothing ever wrote carol's row; the live side marks it dirty with
     garbage — silent corruption, attributable to no op. *)
  let garbage = Bytes.make 192 'z' in
  let lv =
    live env
      ~dep:(fun a -> if Address.equal a carol then Some garbage else None)
      ~dep_dirty:(fun () -> [ carol ])
      ()
  in
  (match Twin.audit env.tw ~epoch:0 lv with
  | [ r ] ->
    Alcotest.(check (option (pair int string))) "out-of-band" None r.Twin.r_culprit;
    Alcotest.(check string) "deposits layer" "deposits"
      (Twin.layer_to_string r.Twin.r_layer);
    (* An absent row compares as 192 zero bytes. *)
    Alcotest.(check bool) "expected zeros" true
      (r.Twin.r_expected = Some (Bytes.make 192 '\000'))
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 report, got %d" (List.length rs)))

let test_live_bank_drift_is_bank_layer_divergence () =
  let env = make_env () in
  seed_scalars env;
  dep_both env alice one_e18;
  (match Twin.audit env.tw ~epoch:0 (live env ()) with
  | [] -> ()
  | rs -> Alcotest.fail (Printf.sprintf "clean epoch diverged (%d)" (List.length rs)));
  (* Epoch 1: the live bank applies a deposit the twin never hears
     about. No window op wrote the meta section, so the divergence is
     out-of-band at the bank layer. *)
  dep_mirror env bob one_e18;
  match Twin.audit env.tw ~epoch:1 (live env ()) with
  | [ r ] ->
    Alcotest.(check string) "bank meta" "bank.meta" (Twin.key_to_string r.Twin.r_key);
    Alcotest.(check (option (pair int string))) "no window culprit" None r.Twin.r_culprit
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 report, got %d" (List.length rs))

let test_replica_rejection_surfaces () =
  let env = make_env () in
  seed_scalars env;
  dep_both env alice one_e18;
  (* Feed the twin a gapped sync (epoch 5 when 0 is expected). The
     replica rejects it; the audit must surface that as a bank-layer
     divergence bisected to the sync op even though the live meta bytes
     still agree. *)
  let p =
    { Sync_payload.epoch = 5; pool = 0; pool_balance0 = U256.zero;
      pool_balance1 = U256.zero; users = []; positions = [];
      next_committee_vk = snd env.keys.(1) }
  in
  let bad_sync_index = Twin.op_count env.tw in
  Twin.apply env.tw
    (Durable.Record.Sync
       [ (p, Bls.sign (fst env.keys.(0)) (Sync_payload.signing_bytes p)) ]);
  let reports = Twin.audit env.tw ~epoch:0 (live env ()) in
  Alcotest.(check bool) "at least one report" true (reports <> []);
  Alcotest.(check bool) "bisected to the sync op" true
    (List.exists
       (fun r -> r.Twin.r_culprit = Some (bad_sync_index, "bank.sync"))
       reports)

let test_checkpoint_restore_reorg_symmetry () =
  let env = make_env () in
  seed_scalars env;
  dep_both env alice one_e18;
  let ck = Twin.checkpoint env.tw in
  let mck = Token_bank.checkpoint env.mirror in
  (* Both sides apply bob's deposit, then the chain reorgs it away. *)
  dep_both env bob one_e18;
  let before = Twin.op_count env.tw in
  Twin.restore env.tw ck;
  Token_bank.restore env.mirror mck;
  Alcotest.(check bool) "rollback op recorded" true (Twin.op_count env.tw > before);
  match Twin.audit env.tw ~epoch:0 (live env ()) with
  | [] -> ()
  | rs ->
    Alcotest.fail
      (Printf.sprintf "restore broke twin/live agreement: %s"
         (String.concat "; " (List.map Twin.report_to_string rs)))

(* ------------------------------------------------------------------ *)
(* Time travel                                                         *)
(* ------------------------------------------------------------------ *)

let test_time_travel () =
  let env = make_env () in
  seed_scalars env;
  let row = Bytes.make 192 'r' in
  Twin.record env.tw ~label:"swap" [ (Twin.Dep_row alice, Some row) ];
  dep_both env alice one_e18;
  let lv0 =
    live env
      ~dep:(fun a -> if Address.equal a alice then Some row else None)
      ~dep_dirty:(fun () -> [ alice ])
      ()
  in
  Alcotest.(check (list string)) "epoch 0 clean" []
    (List.map Twin.report_to_string (Twin.audit env.tw ~epoch:0 lv0));
  dep_both env bob (U256.mul one_e18 U256.two);
  Alcotest.(check (list string)) "epoch 1 clean" []
    (List.map Twin.report_to_string (Twin.audit env.tw ~epoch:1 (live env ())));
  let v = Twin.view env.tw in
  Alcotest.(check (list int)) "sealed epochs" [ 0; 1 ] (Twin.epochs_sealed v);
  (match Twin.custody_at v ~epoch:0 with
  | Some (c0, c1) ->
    Alcotest.(check string) "custody0 at epoch 0" (U256.to_string one_e18)
      (U256.to_string c0);
    Alcotest.(check string) "custody1 at epoch 0" (U256.to_string one_e18)
      (U256.to_string c1)
  | None -> Alcotest.fail "no custody at epoch 0");
  (match Twin.custody_at v ~epoch:1 with
  | Some (c0, _) ->
    Alcotest.(check string) "custody grew" (U256.to_string (U256.mul one_e18 (U256.of_int 3)))
      (U256.to_string c0)
  | None -> Alcotest.fail "no custody at epoch 1");
  Alcotest.(check bool) "row readable at its seal" true
    (Twin.read_at v ~epoch:0 (Twin.Dep_row alice) = Some row);
  (* Epoch-local deposit rows are dropped at the seal: the row is absent
     from the next epoch's snapshot. *)
  Alcotest.(check bool) "row absent next epoch" true
    (Twin.read_at v ~epoch:1 (Twin.Dep_row alice) = None);
  Alcotest.(check bool) "no custody at unsealed epoch" true
    (Twin.custody_at v ~epoch:9 = None)

(* ------------------------------------------------------------------ *)
(* System-level equivalence                                            *)
(* ------------------------------------------------------------------ *)

let sys_base =
  { Config.default with
    epochs = 3;
    daily_volume = 30_000;
    users = 12;
    miners = 40;
    committee_size = 13;
    max_faulty = 4;
    seed = "twin-system-tests" }

let check_detection (r : System.result) =
  (* Every corruption that landed must be reported in the same epoch,
     keyed by the twin's own key string. *)
  List.iter
    (fun (e, k) ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d corruption of %s caught in-epoch" e k)
        true
        (List.exists
           (fun rep ->
             rep.Twin.r_epoch = e && Twin.key_to_string rep.Twin.r_key = k)
           r.System.twin_reports))
    r.System.twin_injections

let qcheck_twin_matches_live =
  QCheck.Test.make ~count:6 ~name:"twin equals live over random fault interleavings"
    QCheck.(pair (int_bound 1000) (int_bound 2))
    (fun (n, intensity_idx) ->
      (* Chaos exercises reorgs, sync drops, degraded signing and
         watchdog transitions; corruption stays off, so any divergence
         is a false positive. *)
      let faults =
        match intensity_idx with
        | 0 -> Faults.Fault_plan.none
        | 1 -> Faults.Fault_plan.chaos ~intensity:0.04 ()
        | _ -> Faults.Fault_plan.chaos ~intensity:0.08 ()
      in
      let cfg =
        { sys_base with
          Config.faults;
          mc_confirmations = (if intensity_idx = 0 then sys_base.Config.mc_confirmations else 3);
          seed = Printf.sprintf "twin-qc-%d-%d" n intensity_idx }
      in
      let r = System.run cfg in
      r.System.twin_audits > 0
      && r.System.twin_divergences = 0
      && r.System.twin_consistent
      && r.System.twin_injections = [])

let test_scripted_corruption_detected () =
  let spr = sys_base.Config.sc_rounds_per_epoch in
  List.iter
    (fun (label, target) ->
      let cfg =
        { sys_base with
          Config.faults =
            { Faults.Fault_plan.none with
              Faults.Fault_plan.corruption =
                { Faults.Fault_plan.corruption_rate = 0.0;
                  corruption_script = [ (1, spr - 1, target) ] } };
          seed = sys_base.Config.seed ^ "-" ^ label }
      in
      let r = System.run cfg in
      Alcotest.(check bool) (label ^ " landed") true (r.System.twin_injections <> []);
      Alcotest.(check bool) (label ^ " flagged") false r.System.twin_consistent;
      check_detection r;
      Alcotest.(check bool) (label ^ " left normal mode") true
        (r.System.mode_transitions <> []))
    [ ("dep", Faults.Fault_plan.Deposit_row);
      ("pos", Faults.Fault_plan.Position_slab);
      ("tick", Faults.Fault_plan.Pool_tick) ]

let test_twin_covers_halt_exit_reconcile () =
  (* Quorum starvation: degraded → halted (exits served) → reconcile →
     normal. The twin replays the halt, every exit and the reconcile on
     its replica and must still match the live bank byte-for-byte. *)
  let cfg =
    { sys_base with
      Config.epochs = 8;
      faults =
        { Faults.Fault_plan.none with
          Faults.Fault_plan.scenario =
            { Faults.Fault_plan.quorum_starvation = Some (2, 5); committee_loss = None } };
      watchdog =
        { Config.default_watchdog with Config.wd_stall_degraded = 2; wd_stall_halted = 4 };
      seed = "twin-halt-cycle" }
  in
  let r = System.run cfg in
  Alcotest.(check string) "recovered" "normal" r.System.final_mode;
  Alcotest.(check bool) "exits happened" true (r.System.exits_served > 0);
  Alcotest.(check bool) "reconciliation applied" true (r.System.reconciliation <> None);
  Alcotest.(check int) "no twin divergence across the cycle" 0 r.System.twin_divergences;
  Alcotest.(check bool) "twin audited the run" true (r.System.twin_audits > 0);
  Alcotest.(check bool) "twin consistent" true r.System.twin_consistent

let test_twin_off_runs_clean () =
  let cfg = { sys_base with Config.twin_audit = false; seed = "twin-off" } in
  let r = System.run cfg in
  Alcotest.(check int) "no audits" 0 r.System.twin_audits;
  Alcotest.(check bool) "vacuously consistent" true r.System.twin_consistent;
  Alcotest.(check bool) "no view" true (r.System.twin_view = None);
  Alcotest.(check bool) "custody invariant still on" true r.System.custody_consistent

let () =
  Alcotest.run "twin"
    [ ( "audit",
        [ Alcotest.test_case "clean audit reports nothing" `Quick test_clean_audit;
          Alcotest.test_case "bisects to the exact op index" `Quick
            test_bisects_exact_op_index;
          Alcotest.test_case "out-of-band corruption has no culprit" `Quick
            test_out_of_band_has_no_culprit;
          Alcotest.test_case "live bank drift is bank-layer divergence" `Quick
            test_live_bank_drift_is_bank_layer_divergence;
          Alcotest.test_case "replica rejection surfaces" `Quick
            test_replica_rejection_surfaces;
          Alcotest.test_case "checkpoint/restore reorg symmetry" `Quick
            test_checkpoint_restore_reorg_symmetry ] );
      ( "time-travel",
        [ Alcotest.test_case "custody_at / read_at / epochs_sealed" `Quick
            test_time_travel ] );
      ( "system",
        [ QCheck_alcotest.to_alcotest ~long:false qcheck_twin_matches_live;
          Alcotest.test_case "scripted corruption detected in-epoch" `Slow
            test_scripted_corruption_detected;
          Alcotest.test_case "halt/exit/reconcile cycle stays consistent" `Slow
            test_twin_covers_halt_exit_reconcile;
          Alcotest.test_case "twin off: no audits, oracle intact" `Quick
            test_twin_off_runs_clean ] ) ]
