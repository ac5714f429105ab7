(* TokenBank: deposits, Sync authentication and application, token
   conservation, the payin-exceeds-deposit rule, mass-sync key chaining,
   flash loans, checkpoint/restore, and the ERC20 + gas substrate. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Erc20 = Mainchain.Erc20
module Gas = Mainchain.Gas
module Bls = Amm_crypto.Bls
open Tokenbank

let u = U256.of_string
let check_u256 = Alcotest.testable U256.pp U256.equal
let one_e18 = u "1000000000000000000"
let one_e21 = u "1000000000000000000000"

let alice = Address.of_label "alice"
let bob = Address.of_label "bob"

type env = {
  bank : Token_bank.t;
  erc0 : Erc20.t;
  erc1 : Erc20.t;
  keys : (Bls.secret_key * Bls.public_key) array; (* per epoch *)
  pool_id : int;
}

let make_env () =
  let rng = Amm_crypto.Rng.create "tokenbank-tests" in
  let erc0 = Erc20.deploy (Chain.Token.make ~id:0 ~symbol:"TKA") in
  let erc1 = Erc20.deploy (Chain.Token.make ~id:1 ~symbol:"TKB") in
  let keys = Array.init 8 (fun _ -> Bls.keygen rng) in
  let bank = Token_bank.deploy ~token0:erc0 ~token1:erc1 ~genesis_committee_vk:(snd keys.(0)) in
  let pool_id = Token_bank.create_pool bank ~flash_fee_pips:3000 in
  List.iter
    (fun who ->
      Erc20.mint erc0 who one_e21;
      Erc20.mint erc1 who one_e21;
      Erc20.approve erc0 ~owner:who ~spender:(Token_bank.address bank) U256.max_value;
      Erc20.approve erc1 ~owner:who ~spender:(Token_bank.address bank) U256.max_value)
    [ alice; bob ];
  { bank; erc0; erc1; keys; pool_id }

let payload ?(users = []) ?(positions = []) env ~epoch ~balance0 ~balance1 =
  { Sync_payload.epoch; pool = env.pool_id; pool_balance0 = balance0;
    pool_balance1 = balance1; users; positions;
    next_committee_vk = snd env.keys.(epoch + 1) }

let sign env ~epoch p = Bls.sign (fst env.keys.(epoch)) (Sync_payload.signing_bytes p)

let fail_rejection r = Alcotest.fail (Token_bank.rejection_to_string r)

let user_entry ?(payin0 = U256.zero) ?(payin1 = U256.zero) ?(payout0 = U256.zero)
    ?(payout1 = U256.zero) who =
  { Sync_payload.user = who; payin0; payin1; payout0; payout1 }

(* ------------------------------------------------------------------ *)
(* Deposits                                                            *)
(* ------------------------------------------------------------------ *)

let test_deposit_moves_tokens () =
  let env = make_env () in
  (match Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:one_e18 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.check check_u256 "deposit recorded" one_e18
    (fst (Token_bank.deposit_of env.bank ~epoch:0 alice));
  Alcotest.check check_u256 "custody holds tokens" one_e18
    (fst (Token_bank.total_custody env.bank));
  Alcotest.check check_u256 "user debited" (U256.sub one_e21 one_e18)
    (Erc20.balance_of env.erc0 alice)

let test_deposit_epoch_scoping () =
  let env = make_env () in
  ignore (Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:U256.zero);
  ignore (Token_bank.deposit env.bank ~user:alice ~for_epoch:1 ~amount0:(U256.mul one_e18 U256.two) ~amount1:U256.zero);
  Alcotest.check check_u256 "epoch 0" one_e18 (fst (Token_bank.deposit_of env.bank ~epoch:0 alice));
  Alcotest.check check_u256 "epoch 1" (U256.mul one_e18 U256.two)
    (fst (Token_bank.deposit_of env.bank ~epoch:1 alice))

let test_deposit_insufficient_balance () =
  let env = make_env () in
  match
    Token_bank.deposit env.bank ~user:alice ~for_epoch:0
      ~amount0:(U256.mul one_e21 (U256.of_int 5)) ~amount1:U256.zero
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overdraft accepted"

let test_deposit_gas_metered () =
  let env = make_env () in
  let m = Gas.meter () in
  ignore (Token_bank.deposit ~meter:m env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:one_e18);
  let total = Gas.total m in
  (* Structured metering lands in the neighborhood of the paper's 52 696. *)
  Alcotest.(check bool) (Printf.sprintf "deposit gas %d plausible" total) true
    (total > 40_000 && total < 80_000)

(* ------------------------------------------------------------------ *)
(* Sync                                                                *)
(* ------------------------------------------------------------------ *)

let test_sync_happy_path () =
  let env = make_env () in
  ignore (Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:U256.zero);
  (* Alice swapped 1e18 of token0 for 9e17 of token1. *)
  let p =
    payload env ~epoch:0 ~balance0:one_e18 ~balance1:U256.zero
      ~users:[ user_entry alice ~payin0:one_e18 ~payout1:U256.zero ]
  in
  (* Pool must conserve: it gains payin0 and pays nothing (payout comes
     from its balance — here zero balance1 means no payout). *)
  (match Token_bank.sync env.bank ~signed:[ (p, sign env ~epoch:0 p) ] with
  | Ok receipt ->
    Alcotest.(check (list int)) "epoch covered" [ 0 ] receipt.Token_bank.epochs_covered;
    Alcotest.(check int) "synced" 0 (Token_bank.last_synced_epoch env.bank)
  | Error e -> fail_rejection e);
  match Token_bank.pool env.bank env.pool_id with
  | Some pi -> Alcotest.check check_u256 "pool credited" one_e18 pi.Token_bank.balance0
  | None -> Alcotest.fail "pool missing"

let test_sync_bad_signature_rejected () =
  let env = make_env () in
  let p = payload env ~epoch:0 ~balance0:U256.zero ~balance1:U256.zero in
  (* Signed by the wrong committee's key. *)
  let bad = Bls.sign (fst env.keys.(3)) (Sync_payload.signing_bytes p) in
  match Token_bank.sync env.bank ~signed:[ (p, bad) ] with
  | Error e ->
    Alcotest.(check string) "typed class" "bad_signature" (Token_bank.rejection_class e);
    Alcotest.(check int) "state untouched" (-1) (Token_bank.last_synced_epoch env.bank)
  | Ok _ -> Alcotest.fail "forged sync accepted"

let test_sync_tampered_payload_rejected () =
  let env = make_env () in
  ignore (Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:U256.zero);
  let p =
    payload env ~epoch:0 ~balance0:one_e18 ~balance1:U256.zero
      ~users:[ user_entry alice ~payin0:one_e18 ]
  in
  let signature = sign env ~epoch:0 p in
  let tampered = { p with Sync_payload.pool_balance0 = U256.mul one_e18 U256.two } in
  match Token_bank.sync env.bank ~signed:[ (tampered, signature) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered payload accepted"

let test_sync_conservation_violation_rejected () =
  let env = make_env () in
  (* Claim the pool pays out more than it takes in. *)
  let p =
    payload env ~epoch:0 ~balance0:U256.zero ~balance1:U256.zero
      ~users:[ user_entry alice ~payout0:one_e18 ]
  in
  match Token_bank.sync env.bank ~signed:[ (p, sign env ~epoch:0 p) ] with
  | Error e ->
    Alcotest.(check string) "typed class" "conservation_violation"
      (Token_bank.rejection_class e);
    Alcotest.(check int) "state untouched" (-1) (Token_bank.last_synced_epoch env.bank)
  | Ok _ -> Alcotest.fail "uncovered payout accepted"

let test_sync_wrong_epoch_rejected () =
  let env = make_env () in
  let p = payload env ~epoch:2 ~balance0:U256.zero ~balance1:U256.zero in
  match Token_bank.sync env.bank ~signed:[ (p, sign env ~epoch:2 p) ] with
  | Error (Token_bank.Contiguity_gap { expected = 0; got = 2 }) -> ()
  | Error e -> Alcotest.failf "wrong rejection: %s" (Token_bank.rejection_to_string e)
  | Ok _ -> Alcotest.fail "epoch gap accepted"

let test_sync_payout_and_refund () =
  let env = make_env () in
  ignore (Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:U256.zero);
  let balance_before0 = Erc20.balance_of env.erc0 alice in
  let balance_before1 = Erc20.balance_of env.erc1 alice in
  (* Alice spent 0.4e18 token0, got 0.3e18 token1; pool starts empty. *)
  let spent = u "400000000000000000" and got = u "300000000000000000" in
  (* Seed pool with enough token1 via bob's payin. *)
  ignore (Token_bank.deposit env.bank ~user:bob ~for_epoch:0 ~amount0:U256.zero ~amount1:one_e18);
  let p =
    payload env ~epoch:0 ~balance0:spent ~balance1:(U256.sub one_e18 got)
      ~users:
        [ user_entry alice ~payin0:spent ~payout1:got;
          user_entry bob ~payin1:one_e18 ]
  in
  (match Token_bank.sync env.bank ~signed:[ (p, sign env ~epoch:0 p) ] with
  | Ok _ -> ()
  | Error e -> fail_rejection e);
  (* Alice got her payout in token1 and the unspent 0.6e18 token0 refund. *)
  Alcotest.check check_u256 "token1 payout" (U256.add balance_before1 got)
    (Erc20.balance_of env.erc1 alice);
  Alcotest.check check_u256 "token0 residual refund"
    (U256.add balance_before0 (U256.sub one_e18 spent))
    (Erc20.balance_of env.erc0 alice);
  (* Deposit ledger cleared for the epoch. *)
  Alcotest.check check_u256 "deposit cleared" U256.zero
    (fst (Token_bank.deposit_of env.bank ~epoch:0 alice));
  (* Custody equals pool balances exactly after the epoch settles. *)
  let c0, c1 = Token_bank.total_custody env.bank in
  (match Token_bank.pool env.bank env.pool_id with
  | Some pi ->
    Alcotest.check check_u256 "custody = pool 0" pi.Token_bank.balance0 c0;
    Alcotest.check check_u256 "custody = pool 1" pi.Token_bank.balance1 c1
  | None -> Alcotest.fail "pool missing")

let test_sync_payin_exceeding_deposit_clipped_from_payout () =
  let env = make_env () in
  (* Alice deposited 1e18 but her sidechain activity consumed 1.5e18 of
     token0 (she re-spent sidechain credit); the 0.5e18 shortfall comes out
     of her payout (§4.2). *)
  ignore (Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:U256.zero);
  let payin = u "1500000000000000000" and payout = u "800000000000000000" in
  let short = U256.sub payin one_e18 in
  let before0 = Erc20.balance_of env.erc0 alice in
  let p =
    payload env ~epoch:0 ~balance0:(U256.sub payin payout) ~balance1:U256.zero
      ~users:[ user_entry alice ~payin0:payin ~payout0:payout ]
  in
  (match Token_bank.sync env.bank ~signed:[ (p, sign env ~epoch:0 p) ] with
  | Ok _ -> ()
  | Error e -> fail_rejection e);
  Alcotest.check check_u256 "payout clipped by shortfall"
    (U256.add before0 (U256.sub payout short))
    (Erc20.balance_of env.erc0 alice)

let test_mass_sync_key_chain () =
  let env = make_env () in
  ignore (Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:U256.zero);
  let p0 =
    payload env ~epoch:0 ~balance0:one_e18 ~balance1:U256.zero
      ~users:[ user_entry alice ~payin0:one_e18 ]
  in
  let p1 = payload env ~epoch:1 ~balance0:one_e18 ~balance1:U256.zero in
  let p2 = payload env ~epoch:2 ~balance0:one_e18 ~balance1:U256.zero in
  (* Epochs 0-2 land in one mass-sync; each is signed by its own epoch
     committee, whose key is recorded by the previous payload. *)
  (match
     Token_bank.sync env.bank
       ~signed:
         [ (p0, sign env ~epoch:0 p0); (p1, sign env ~epoch:1 p1);
           (p2, sign env ~epoch:2 p2) ]
   with
  | Ok receipt ->
    Alcotest.(check (list int)) "covered" [ 0; 1; 2 ] receipt.Token_bank.epochs_covered;
    Alcotest.(check int) "synced to 2" 2 (Token_bank.last_synced_epoch env.bank)
  | Error e -> fail_rejection e);
  (* A payload signed by the wrong link of the chain is rejected. *)
  let env2 = make_env () in
  let q0 = payload env2 ~epoch:0 ~balance0:U256.zero ~balance1:U256.zero in
  let q1 = payload env2 ~epoch:1 ~balance0:U256.zero ~balance1:U256.zero in
  match
    Token_bank.sync env2.bank
      ~signed:[ (q0, sign env2 ~epoch:0 q0); (q1, sign env2 ~epoch:0 q1) ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong chain link accepted"

let test_sync_gas_itemization () =
  let env = make_env () in
  ignore (Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:U256.zero);
  let p =
    payload env ~epoch:0 ~balance0:one_e18 ~balance1:U256.zero
      ~users:[ user_entry alice ~payin0:one_e18 ]
  in
  match Token_bank.sync env.bank ~signed:[ (p, sign env ~epoch:0 p) ] with
  | Error e -> fail_rejection e
  | Ok receipt ->
    let items = Gas.breakdown receipt.Token_bank.gas in
    List.iter
      (fun key ->
        if not (List.mem_assoc key items) then Alcotest.failf "missing component %s" key)
      [ "base"; "calldata"; "auth.hash_to_point"; "auth.pairing"; "storage" ];
    Alcotest.(check int) "pairing cost" Gas.pairing_check
      (List.assoc "auth.pairing" items);
    Alcotest.(check bool) "storage covers vk + balances" true
      (List.assoc "storage" items >= 6 * Gas.sstore_word)

let test_position_lifecycle_through_sync () =
  let env = make_env () in
  let pid = Chain.Ids.Position_id.of_hash (Amm_crypto.Sha256.digest_string "pos") in
  ignore (Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:U256.zero);
  let pos_entry =
    { Sync_payload.pos_id = pid; owner = alice; lower_tick = -60; upper_tick = 60;
      liquidity = one_e18; amount0 = one_e18; amount1 = U256.zero;
      fees0 = U256.zero; fees1 = U256.zero; deleted = false }
  in
  let p0 =
    payload env ~epoch:0 ~balance0:one_e18 ~balance1:U256.zero
      ~users:[ user_entry alice ~payin0:one_e18 ]
      ~positions:[ pos_entry ]
  in
  ignore (Token_bank.sync env.bank ~signed:[ (p0, sign env ~epoch:0 p0) ]);
  Alcotest.(check bool) "position stored" true (Token_bank.find_position env.bank pid <> None);
  (* Next epoch deletes it (full withdrawal paid back to alice). *)
  ignore (Token_bank.deposit env.bank ~user:bob ~for_epoch:1 ~amount0:U256.zero ~amount1:U256.zero);
  let p1 =
    payload env ~epoch:1 ~balance0:U256.zero ~balance1:U256.zero
      ~users:[ user_entry alice ~payout0:one_e18 ]
      ~positions:[ { pos_entry with Sync_payload.deleted = true } ]
  in
  (match Token_bank.sync env.bank ~signed:[ (p1, sign env ~epoch:1 p1) ] with
  | Ok receipt -> Alcotest.(check int) "one delete" 1 receipt.Token_bank.positions_deleted
  | Error e -> fail_rejection e);
  Alcotest.(check bool) "position gone" true (Token_bank.find_position env.bank pid = None)

let test_sync_empty_epoch () =
  (* An epoch with no activity still syncs (records the next vk). *)
  let env = make_env () in
  let p = payload env ~epoch:0 ~balance0:U256.zero ~balance1:U256.zero in
  match Token_bank.sync env.bank ~signed:[ (p, sign env ~epoch:0 p) ] with
  | Ok receipt ->
    Alcotest.(check int) "no payouts" 0 receipt.Token_bank.payouts_dispensed;
    Alcotest.(check int) "epoch advanced" 0 (Token_bank.last_synced_epoch env.bank)
  | Error e -> fail_rejection e

let test_sync_replay_rejected () =
  (* A confirmed Sync resubmitted verbatim must be rejected (stale
     epoch). *)
  let env = make_env () in
  let p = payload env ~epoch:0 ~balance0:U256.zero ~balance1:U256.zero in
  let signed = [ (p, sign env ~epoch:0 p) ] in
  (match Token_bank.sync env.bank ~signed with
  | Ok _ -> ()
  | Error e -> fail_rejection e);
  match Token_bank.sync env.bank ~signed with
  | Error (Token_bank.Stale_epoch _) -> ()
  | Error e -> Alcotest.failf "wrong rejection: %s" (Token_bank.rejection_to_string e)
  | Ok _ -> Alcotest.fail "replayed sync accepted"

let test_multi_pool_sync () =
  let env = make_env () in
  let pool2 = Token_bank.create_pool env.bank ~flash_fee_pips:500 in
  ignore (Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:U256.zero);
  (* Fund pool2 instead of pool 0. *)
  let p =
    { (payload env ~epoch:0 ~balance0:one_e18 ~balance1:U256.zero
         ~users:[ user_entry alice ~payin0:one_e18 ])
      with Sync_payload.pool = pool2 }
  in
  (match Token_bank.sync env.bank ~signed:[ (p, sign env ~epoch:0 p) ] with
  | Ok _ -> ()
  | Error e -> fail_rejection e);
  (match Token_bank.pool env.bank pool2 with
  | Some pi -> Alcotest.check check_u256 "pool2 funded" one_e18 pi.Token_bank.balance0
  | None -> Alcotest.fail "pool2 missing");
  match Token_bank.pool env.bank env.pool_id with
  | Some pi -> Alcotest.check check_u256 "pool0 untouched" U256.zero pi.Token_bank.balance0
  | None -> Alcotest.fail "pool0 missing"

(* ------------------------------------------------------------------ *)
(* Flash loans on the mainchain                                        *)
(* ------------------------------------------------------------------ *)

let flash_env () =
  let env = make_env () in
  ignore (Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:one_e18);
  let p =
    payload env ~epoch:0 ~balance0:one_e18 ~balance1:one_e18
      ~users:[ user_entry alice ~payin0:one_e18 ~payin1:one_e18 ]
  in
  ignore (Token_bank.sync_exn env.bank ~signed:[ (p, sign env ~epoch:0 p) ]);
  env

let test_flash_repaid () =
  let env = flash_env () in
  let borrow = u "100000000000000000" in
  match
    Token_bank.flash env.bank ~pool:env.pool_id ~borrower:bob ~amount0:borrow
      ~amount1:U256.zero ~callback:(fun ~fee0:_ ~fee1:_ -> Ok ())
  with
  | Ok (fee0, _) ->
    Alcotest.(check bool) "fee positive" true (U256.gt fee0 U256.zero);
    (match Token_bank.pool env.bank env.pool_id with
    | Some pi ->
      Alcotest.check check_u256 "pool grew by fee" (U256.add one_e18 fee0)
        pi.Token_bank.balance0
    | None -> Alcotest.fail "pool missing")
  | Error e -> Alcotest.fail e

let test_flash_not_repaid_inverts () =
  let env = flash_env () in
  let borrow = u "100000000000000000" in
  let bob_before = Erc20.balance_of env.erc0 bob in
  (match
     Token_bank.flash env.bank ~pool:env.pool_id ~borrower:bob ~amount0:borrow
       ~amount1:U256.zero
       ~callback:(fun ~fee0 ~fee1:_ ->
         (* Bob burns the fee he owes so he cannot repay. *)
         ignore (Erc20.transfer env.erc0 ~source:bob ~dest:(Address.of_label "void") fee0);
         ignore
           (Erc20.transfer env.erc0 ~source:bob ~dest:(Address.of_label "void")
              (Erc20.balance_of env.erc0 bob));
         Ok ())
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unrepayable flash accepted");
  ignore bob_before;
  match Token_bank.pool env.bank env.pool_id with
  | Some pi -> Alcotest.check check_u256 "pool balance intact" one_e18 pi.Token_bank.balance0
  | None -> Alcotest.fail "pool missing"

let test_flash_pool_balances_unchanged_for_sidechain () =
  (* Flashes must not invalidate the sidechain's epoch-start snapshot:
     pool balances after a successful flash differ only by the earned fee
     (and are identical when the fee is zero). *)
  let env = flash_env () in
  let snap_before = Token_bank.snapshot env.bank ~epoch:1 in
  (match
     Token_bank.flash env.bank ~pool:env.pool_id ~borrower:bob
       ~amount0:(u "500000000000000000") ~amount1:U256.zero
       ~callback:(fun ~fee0:_ ~fee1:_ -> Ok ())
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let snap_after = Token_bank.snapshot env.bank ~epoch:1 in
  Alcotest.(check bool) "deposits unchanged" true
    (snap_before.Token_bank.snap_deposits = snap_after.Token_bank.snap_deposits)

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore (rollback modeling)                            *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_restore () =
  let env = make_env () in
  ignore (Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:U256.zero);
  let ck = Token_bank.checkpoint env.bank in
  let p =
    payload env ~epoch:0 ~balance0:one_e18 ~balance1:U256.zero
      ~users:[ user_entry alice ~payin0:one_e18 ]
  in
  ignore (Token_bank.sync env.bank ~signed:[ (p, sign env ~epoch:0 p) ]);
  Alcotest.(check int) "applied" 0 (Token_bank.last_synced_epoch env.bank);
  Token_bank.restore env.bank ck;
  Alcotest.(check int) "restored epoch" (-1) (Token_bank.last_synced_epoch env.bank);
  Alcotest.check check_u256 "restored deposit" one_e18
    (fst (Token_bank.deposit_of env.bank ~epoch:0 alice));
  (* The same signed payload re-applies after the rollback (mass-sync). *)
  match Token_bank.sync env.bank ~signed:[ (p, sign env ~epoch:0 p) ] with
  | Ok _ -> Alcotest.(check int) "re-applied" 0 (Token_bank.last_synced_epoch env.bank)
  | Error e -> fail_rejection e

let test_checkpoint_o_dirty () =
  (* The checkpoint cost bound: with 100 open positions, an epoch that
     touches exactly one of them journals ~one row image — not a copy of
     the whole table. *)
  let env = make_env () in
  ignore (Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:U256.zero);
  let mk_pos i =
    let pid =
      Chain.Ids.Position_id.of_hash
        (Amm_crypto.Sha256.digest_string (Printf.sprintf "ck-pos-%d" i))
    in
    { Sync_payload.pos_id = pid; owner = alice; lower_tick = -60; upper_tick = 60;
      liquidity = one_e18; amount0 = U256.zero; amount1 = U256.zero;
      fees0 = U256.zero; fees1 = U256.zero; deleted = false }
  in
  let p0 =
    payload env ~epoch:0 ~balance0:one_e18 ~balance1:U256.zero
      ~users:[ user_entry alice ~payin0:one_e18 ]
      ~positions:(List.init 100 mk_pos)
  in
  ignore (Token_bank.sync_exn env.bank ~signed:[ (p0, sign env ~epoch:0 p0) ]);
  let ck = Token_bank.checkpoint env.bank in
  let before = Token_bank.positions_bytes env.bank in
  let j0 = Token_bank.checkpoint_journal_bytes env.bank in
  let p1 =
    payload env ~epoch:1 ~balance0:one_e18 ~balance1:U256.zero
      ~positions:[ { (mk_pos 42) with Sync_payload.liquidity = U256.mul one_e18 U256.two } ]
  in
  ignore (Token_bank.sync_exn env.bank ~signed:[ (p1, sign env ~epoch:1 p1) ]);
  let after = Token_bank.positions_bytes env.bank in
  let delta = Token_bank.checkpoint_journal_bytes env.bank - j0 in
  let row = Pos_store.row_bytes (Token_bank.positions_store env.bank) in
  Alcotest.(check bool)
    (Printf.sprintf "single-position epoch journals O(dirty) bytes (%d <= %d)" delta (2 * row))
    true
    (delta > 0 && delta <= 2 * row);
  (* Rolling back and replaying the same summary reproduces the table
     byte for byte. *)
  Token_bank.restore env.bank ck;
  Alcotest.(check bytes) "restore recovers the position table" before
    (Token_bank.positions_bytes env.bank);
  ignore (Token_bank.sync_exn env.bank ~signed:[ (p1, sign env ~epoch:1 p1) ]);
  Alcotest.(check bytes) "replayed table byte-identical" after
    (Token_bank.positions_bytes env.bank);
  (* The snapshot codec round-trips the restored table. *)
  let decoded = Pos_store.of_bytes_exn after in
  Alcotest.(check int) "decoded live count" 100 (Pos_store.length decoded);
  Alcotest.(check bytes) "decode/encode stable" after (Pos_store.to_bytes decoded)

(* ------------------------------------------------------------------ *)
(* Halt / emergency exit / reconciliation                              *)
(* ------------------------------------------------------------------ *)

let two_e18 = U256.mul one_e18 U256.two

(* Alice and bob each funded the pool 1e18/1e18 in epoch 0; alice holds
   the only position (all the token0 principal). *)
let halt_env () =
  let env = make_env () in
  ignore (Token_bank.deposit env.bank ~user:alice ~for_epoch:0 ~amount0:one_e18 ~amount1:one_e18);
  ignore (Token_bank.deposit env.bank ~user:bob ~for_epoch:0 ~amount0:one_e18 ~amount1:one_e18);
  let pid = Chain.Ids.Position_id.of_hash (Amm_crypto.Sha256.digest_string "pos-a") in
  let pos =
    { Sync_payload.pos_id = pid; owner = alice; lower_tick = -60; upper_tick = 60;
      liquidity = one_e18; amount0 = one_e18; amount1 = U256.zero;
      fees0 = U256.zero; fees1 = U256.zero; deleted = false }
  in
  let p =
    payload env ~epoch:0 ~balance0:two_e18 ~balance1:two_e18
      ~users:
        [ user_entry alice ~payin0:one_e18 ~payin1:one_e18;
          user_entry bob ~payin0:one_e18 ~payin1:one_e18 ]
      ~positions:[ pos ]
  in
  ignore (Token_bank.sync_exn env.bank ~signed:[ (p, sign env ~epoch:0 p) ]);
  env

let test_halt_freezes_bank () =
  let env = halt_env () in
  (match Token_bank.emergency_exit env.bank ~claimant:alice with
  | Error Token_bank.Not_halted -> ()
  | _ -> Alcotest.fail "exit served while live");
  (match Token_bank.halt env.bank ~epoch:0 with
  | Ok () -> ()
  | Error e -> fail_rejection e);
  Alcotest.(check bool) "halted" true (Token_bank.is_halted env.bank);
  (match
     Token_bank.deposit env.bank ~user:alice ~for_epoch:2 ~amount0:one_e18
       ~amount1:U256.zero
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "deposit accepted while halted");
  let p = payload env ~epoch:1 ~balance0:two_e18 ~balance1:two_e18 in
  (match Token_bank.sync env.bank ~signed:[ (p, sign env ~epoch:1 p) ] with
  | Error Token_bank.Bank_halted -> ()
  | Error e -> Alcotest.failf "wrong rejection: %s" (Token_bank.rejection_to_string e)
  | Ok _ -> Alcotest.fail "sync accepted while halted");
  match
    Token_bank.flash env.bank ~pool:env.pool_id ~borrower:bob ~amount0:U256.one
      ~amount1:U256.zero ~callback:(fun ~fee0:_ ~fee1:_ -> Ok ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "flash accepted while halted"

let test_exit_pro_rata_and_conservation () =
  let env = halt_env () in
  let custody0, _ = Token_bank.total_custody env.bank in
  (match Token_bank.halt env.bank ~epoch:0 with
  | Ok () -> ()
  | Error e -> fail_rejection e);
  let claim =
    match Token_bank.emergency_exit env.bank ~claimant:alice with
    | Ok c -> c
    | Error e -> fail_rejection e
  in
  (* Alice holds the only position, so her claim covers the full frozen
     token0 reserve; nothing of token1 is position value. *)
  Alcotest.check check_u256 "claim0 = frozen reserves" two_e18 claim.Token_bank.claim0;
  Alcotest.check check_u256 "claim1 zero" U256.zero claim.Token_bank.claim1;
  Alcotest.(check int) "one position closed" 1 claim.Token_bank.positions_closed;
  Alcotest.(check bool) "exit gas metered" true
    (Gas.total claim.Token_bank.exit_gas > 21_000);
  (match Token_bank.emergency_exit env.bank ~claimant:alice with
  | Error (Token_bank.Already_exited _) -> ()
  | _ -> Alcotest.fail "double exit accepted");
  (* Bob holds no position and his deposits were consumed: zero claim. *)
  (match Token_bank.emergency_exit env.bank ~claimant:bob with
  | Ok c -> Alcotest.check check_u256 "bob claim zero" U256.zero c.Token_bank.claim0
  | Error e -> fail_rejection e);
  Alcotest.(check int) "exits served" 2 (Token_bank.exits_served env.bank);
  Alcotest.(check bool) "exit conservation" true
    (Token_bank.exit_conservation_ok env.bank);
  let c0', _ = Token_bank.total_custody env.bank in
  Alcotest.check check_u256 "custody drained by exactly the claims"
    (U256.sub custody0 two_e18) c0'

let test_reconcile_after_exits () =
  let env = halt_env () in
  (* Epoch 1 is certified but never applied: bob pays in another 1e18 of
     token0 and is owed half a token1. *)
  ignore (Token_bank.deposit env.bank ~user:bob ~for_epoch:1 ~amount0:one_e18 ~amount1:U256.zero);
  let half = u "500000000000000000" in
  let p1 =
    payload env ~epoch:1 ~balance0:(U256.add two_e18 one_e18)
      ~balance1:(U256.sub two_e18 half)
      ~users:[ user_entry bob ~payin0:one_e18 ~payout1:half ]
  in
  let signed = [ (p1, sign env ~epoch:1 p1) ] in
  (match Token_bank.reconcile env.bank ~signed with
  | Error Token_bank.Not_halted -> ()
  | _ -> Alcotest.fail "reconcile accepted while live");
  (match Token_bank.halt env.bank ~epoch:1 with
  | Ok () -> ()
  | Error e -> fail_rejection e);
  (* Alice exits during the halt; bob waits for the reconciliation. *)
  (match Token_bank.emergency_exit env.bank ~claimant:alice with
  | Ok _ -> ()
  | Error e -> fail_rejection e);
  let bob1_before = Erc20.balance_of env.erc1 bob in
  match Token_bank.reconcile env.bank ~signed with
  | Error e -> fail_rejection e
  | Ok r ->
    Alcotest.(check (list int)) "epochs reconciled" [ 1 ] r.Token_bank.rec_epochs;
    Alcotest.(check bool) "bank un-halted" false (Token_bank.is_halted env.bank);
    Alcotest.(check int) "synced advanced" 1 (Token_bank.last_synced_epoch env.bank);
    Alcotest.(check int) "bob applied" 1 r.Token_bank.rec_users_applied;
    Alcotest.(check int) "nobody voided" 0 r.Token_bank.rec_users_voided;
    Alcotest.check check_u256 "bob's payout dispensed"
      (U256.add bob1_before half) (Erc20.balance_of env.erc1 bob);
    Alcotest.(check bool) "exit conservation still holds" true
      (Token_bank.exit_conservation_ok env.bank)

let test_reconcile_voids_exited_users () =
  let env = halt_env () in
  (* Epoch 1 owes alice a payout; she exits instead, so the
     reconciliation must void her entry rather than pay twice. *)
  let half = u "500000000000000000" in
  let p1 =
    payload env ~epoch:1 ~balance0:(U256.sub two_e18 half) ~balance1:two_e18
      ~users:[ user_entry alice ~payout0:half ]
  in
  let signed = [ (p1, sign env ~epoch:1 p1) ] in
  (match Token_bank.halt env.bank ~epoch:1 with
  | Ok () -> ()
  | Error e -> fail_rejection e);
  (match Token_bank.emergency_exit env.bank ~claimant:alice with
  | Ok _ -> ()
  | Error e -> fail_rejection e);
  let alice0_after_exit = Erc20.balance_of env.erc0 alice in
  match Token_bank.reconcile env.bank ~signed with
  | Error e -> fail_rejection e
  | Ok r ->
    Alcotest.(check int) "alice voided" 1 r.Token_bank.rec_users_voided;
    Alcotest.check check_u256 "voided value netted" half r.Token_bank.rec_voided0;
    Alcotest.check check_u256 "alice not paid twice" alice0_after_exit
      (Erc20.balance_of env.erc0 alice);
    Alcotest.(check bool) "exit conservation still holds" true
      (Token_bank.exit_conservation_ok env.bank)

(* ------------------------------------------------------------------ *)
(* ABI payload encoding                                                *)
(* ------------------------------------------------------------------ *)

let test_abi_sizes () =
  let env = make_env () in
  let p =
    payload env ~epoch:0 ~balance0:U256.zero ~balance1:U256.zero
      ~users:[ user_entry alice; user_entry bob ]
      ~positions:
        [ { Sync_payload.pos_id = Chain.Ids.Position_id.of_hash (Amm_crypto.Sha256.digest_string "x");
            owner = alice; lower_tick = -60; upper_tick = 60; liquidity = U256.one;
            amount0 = U256.one; amount1 = U256.one; fees0 = U256.zero; fees1 = U256.zero;
            deleted = false } ]
  in
  let base_p = payload env ~epoch:0 ~balance0:U256.zero ~balance1:U256.zero in
  let delta = Sync_payload.abi_size p - Sync_payload.abi_size base_p in
  Alcotest.(check int) "2 users + 1 position delta"
    ((2 * Sync_payload.abi_user_entry_size) + Sync_payload.abi_position_entry_size)
    delta;
  Alcotest.(check int) "user entry 352" 352 Sync_payload.abi_user_entry_size;
  Alcotest.(check int) "position entry 416" 416 Sync_payload.abi_position_entry_size;
  (* Storage: 6 words per live position + 2 pool + 4 vk. *)
  Alcotest.(check int) "storage words" (6 + 2 + 4) (Sync_payload.storage_words p)

let gen_u256 =
  QCheck2.Gen.(oneof [ return U256.zero; return U256.max_value; map U256.of_int nat ])

let gen_payload =
  let open QCheck2.Gen in
  let vk = snd (Bls.keygen (Amm_crypto.Rng.create "abi-size-vk")) in
  let gen_user =
    let+ i = int_range 0 999 and+ payin0 = gen_u256 and+ payout1 = gen_u256 in
    user_entry (Address.of_label (string_of_int i)) ~payin0 ~payout1
  in
  let gen_position =
    let+ i = nat and+ lower_tick = int_range (-887272) 887272
    and+ liquidity = gen_u256 and+ fees0 = gen_u256 and+ deleted = bool in
    { Sync_payload.pos_id =
        Chain.Ids.Position_id.of_hash (Amm_crypto.Sha256.digest_string (string_of_int i));
      owner = alice; lower_tick; upper_tick = lower_tick + 60; liquidity;
      amount0 = U256.one; amount1 = U256.zero; fees0; fees1 = U256.max_value; deleted }
  in
  let+ epoch = int_range 0 10_000 and+ pool = int_range 0 3
  and+ pool_balance0 = gen_u256
  and+ users = list_size (int_range 0 20) gen_user
  and+ positions = list_size (int_range 0 20) gen_position in
  { Sync_payload.epoch; pool; pool_balance0; pool_balance1 = U256.one; users; positions;
    next_committee_vk = vk }

(* The closed-form size is what every sync now prices; the real encoder
   is its oracle. *)
let abi_size_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"closed-form abi_size = encoded length"
         ~print:(fun (p : Sync_payload.t) ->
           Printf.sprintf "%d users, %d positions" (List.length p.users)
             (List.length p.positions))
         gen_payload
         (fun p ->
           Sync_payload.abi_size p
           = Bytes.length (Sync_payload.abi_encode p) + Bls.signature_size)) ]

(* [signing_bytes] streams the calldata's pieces into SHA-256 instead of
   building it. The signer, the bank and the monitor all call it, so a
   wrong stream would agree with itself everywhere else: the calldata is
   its oracle here, and the calldata's own oracle is the word-list
   construction it replaced, kept below. *)
let ref_tick_word tick =
  if tick >= 0 then Chain.Encoding.int_word tick
  else Chain.Encoding.word (U256.sub U256.zero (U256.of_int (-tick)))

let ref_abi_encode (t : Sync_payload.t) =
  let open Chain.Encoding in
  let user (e : Sync_payload.user_entry) =
    [ address_word e.user; Bytes.make 32 '\000'; word e.payin0; word e.payin1;
      word e.payout0; word e.payout1; Bytes.make (5 * 32) '\000' ]
  in
  let position (p : Sync_payload.position_entry) =
    [ bytes32_word (Chain.Ids.Position_id.to_bytes p.pos_id); address_word p.owner;
      Bytes.make 32 '\000'; ref_tick_word p.lower_tick; ref_tick_word p.upper_tick;
      word p.liquidity; word p.amount0; word p.amount1; word p.fees0; word p.fees1;
      int_word (if p.deleted then 1 else 0); Bytes.make (2 * 32) '\000' ]
  in
  Bytes.concat Bytes.empty
    ([ Bytes.make selector_size '\xab'; int_word t.epoch; int_word t.pool;
       word t.pool_balance0; word t.pool_balance1; Bytes.make (4 * 32) '\000';
       Bls.public_key_to_bytes t.next_committee_vk ]
    @ List.concat_map user t.users @ List.concat_map position t.positions)

(* 0-50 users and 0-20 positions; every amount zero, [U256.max_value] or
   small, ticks of either sign, deleted flags both ways. *)
let gen_stream_payload =
  let open QCheck2.Gen in
  let vk = snd (Bls.keygen (Amm_crypto.Rng.create "signing-stream-vk")) in
  let gen_user =
    let+ i = int_range 0 999 and+ payin0 = gen_u256 and+ payin1 = gen_u256
    and+ payout0 = gen_u256 and+ payout1 = gen_u256 in
    user_entry (Address.of_label (string_of_int i)) ~payin0 ~payin1 ~payout0 ~payout1
  in
  let gen_position =
    let+ i = nat and+ owner = int_range 0 999
    and+ lower_tick = int_range (-887272) 887272 and+ width = int_range 1 1000
    and+ liquidity = gen_u256 and+ amount0 = gen_u256 and+ amount1 = gen_u256
    and+ fees0 = gen_u256 and+ fees1 = gen_u256 and+ deleted = bool in
    { Sync_payload.pos_id =
        Chain.Ids.Position_id.of_hash (Amm_crypto.Sha256.digest_string (string_of_int i));
      owner = Address.of_label (string_of_int owner); lower_tick;
      upper_tick = lower_tick + width; liquidity; amount0; amount1; fees0; fees1; deleted }
  in
  let+ epoch = int_range 0 10_000 and+ pool = int_range 0 3
  and+ pool_balance0 = gen_u256 and+ pool_balance1 = gen_u256
  and+ users = list_size (int_range 0 50) gen_user
  and+ positions = list_size (int_range 0 20) gen_position in
  { Sync_payload.epoch; pool; pool_balance0; pool_balance1; users; positions;
    next_committee_vk = vk }

let signing_stream_props =
  let print (p : Sync_payload.t) =
    Printf.sprintf "%d users, %d positions" (List.length p.users) (List.length p.positions)
  in
  let test name f =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name ~print gen_stream_payload f)
  in
  [ test "signing_bytes = sha256 (abi_encode)" (fun p ->
        Bytes.equal (Sync_payload.signing_bytes p)
          (Amm_crypto.Sha256.digest (Sync_payload.abi_encode p)));
    test "abi_encode = word-list encoding" (fun p ->
        Bytes.equal (Sync_payload.abi_encode p) (ref_abi_encode p)) ]

(* ------------------------------------------------------------------ *)
(* Deposit order                                                       *)
(* ------------------------------------------------------------------ *)

let fund env who =
  Erc20.mint env.erc0 who one_e21;
  Erc20.mint env.erc1 who one_e21;
  Erc20.approve env.erc0 ~owner:who ~spender:(Token_bank.address env.bank) U256.max_value;
  Erc20.approve env.erc1 ~owner:who ~spender:(Token_bank.address env.bank) U256.max_value

let depositors n = List.init n (fun i -> Address.of_label (Printf.sprintf "depositor-%d" i))

let check_addresses = Alcotest.(list (testable Address.pp Address.equal))

let test_deposits_for_epoch_sorted () =
  let env = make_env () in
  let users = depositors 24 in
  List.iter (fund env) users;
  List.iter
    (fun user ->
      ignore
        (Token_bank.deposit env.bank ~user ~for_epoch:0 ~amount0:one_e18 ~amount1:one_e18))
    (List.rev users);
  Alcotest.check check_addresses "address order" (List.sort Address.compare users)
    (List.map fst (Token_bank.deposits_for_epoch env.bank ~epoch:0))

(* The residual-refund drain pays unlisted depositors one by one. With
   custody for only [k] refunds left, it fails at the (k+1)-th — and the
   users already paid reveal the order it visited them in. *)
let drain_order ~reconcile () =
  let env = make_env () in
  let users = depositors 12 and k = 5 in
  List.iter (fund env) users;
  List.iter
    (fun user ->
      ignore
        (Token_bank.deposit env.bank ~user ~for_epoch:0 ~amount0:one_e18 ~amount1:U256.zero))
    users;
  let custody0, _ = Token_bank.total_custody env.bank in
  ignore
    (Erc20.transfer env.erc0 ~source:(Token_bank.address env.bank)
       ~dest:(Address.of_label "void")
       (U256.sub custody0 (U256.mul one_e18 (U256.of_int k))));
  let before = List.map (fun u -> (u, Erc20.balance_of env.erc0 u)) users in
  let p = payload env ~epoch:0 ~balance0:U256.zero ~balance1:U256.zero in
  let signed = [ (p, sign env ~epoch:0 p) ] in
  (match
     if reconcile then begin
       ignore (Token_bank.halt env.bank ~epoch:0);
       Result.is_ok (Token_bank.reconcile env.bank ~signed)
     end
     else Result.is_ok (Token_bank.sync env.bank ~signed)
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "the drain should have run out of custody");
  let paid =
    List.filter_map
      (fun (u, b) -> if U256.gt (Erc20.balance_of env.erc0 u) b then Some u else None)
      before
  in
  Alcotest.check check_addresses "the k smallest addresses were paid first"
    (List.filteri (fun i _ -> i < k) (List.sort Address.compare users))
    (List.sort Address.compare paid)

(* ------------------------------------------------------------------ *)
(* Undo journal vs the persistent-map reference model                  *)
(* ------------------------------------------------------------------ *)

let carol = Address.of_label "carol"
let dave = Address.of_label "dave"

(* Indices 0-3 are users; 4 is the bank's address. *)
let universe = [| alice; bob; carol; dave; Address.of_label "TokenBank" |]
let who i = universe.(i mod Array.length universe)

type op =
  | Mint of int * bool * int  (* account, token0?, amount *)
  | Transfer of int * int * bool * int  (* user, account, token0?, amount *)
  | Transfer_from of int * int * int * bool * int  (* spender, owner, dest, ... *)
  | Approve of int * int * bool * int  (* owner, spender, token0?, amount (<0: max) *)
  | Deposit of int * int * int * int  (* user, epochs ahead, amount0, amount1 *)
  | Sync of (int * int * int) list * (int * bool) list * bool
      (* (user, payin % of deposit, payout), (position, deleted), break conservation *)
  | Flash of int * int * int * int  (* borrower, amount0, amount1, callback kind *)
  | Halt
  | Exit of int
  | Checkpoint
  | Restore of int
  | Release of int

let show_op = function
  | Mint (a, t0, n) -> Printf.sprintf "Mint(%d,%b,%d)" a t0 n
  | Transfer (s, d, t0, n) -> Printf.sprintf "Transfer(%d->%d,%b,%d)" s d t0 n
  | Transfer_from (sp, o, d, t0, n) ->
    Printf.sprintf "Transfer_from(%d:%d->%d,%b,%d)" sp o d t0 n
  | Approve (o, s, t0, n) -> Printf.sprintf "Approve(%d->%d,%b,%d)" o s t0 n
  | Deposit (u, e, a0, a1) -> Printf.sprintf "Deposit(%d,+%d,%d,%d)" u e a0 a1
  | Sync (us, ps, bad) ->
    Printf.sprintf "Sync([%s],[%s],%b)"
      (String.concat ";" (List.map (fun (u, p, o) -> Printf.sprintf "%d:%d%%/%d" u p o) us))
      (String.concat ";" (List.map (fun (p, d) -> Printf.sprintf "%d%s" p (if d then "x" else "")) ps))
      bad
  | Flash (b, a0, a1, k) -> Printf.sprintf "Flash(%d,%d,%d,k%d)" b a0 a1 k
  | Halt -> "Halt"
  | Exit u -> Printf.sprintf "Exit(%d)" u
  | Checkpoint -> "Checkpoint"
  | Restore i -> Printf.sprintf "Restore(%d)" i
  | Release i -> Printf.sprintf "Release(%d)" i

let show_ops ops = String.concat " " (List.map show_op ops)
let amount n = if n < 0 then U256.max_value else U256.of_int n

let gen_erc_op =
  let open QCheck2.Gen in
  let acct = int_range 0 4 and user = int_range 0 3 in
  let amt = frequency [ (6, int_range 0 5_000); (1, return 5_000_000) ] in
  frequency
    [ (2, map3 (fun a t n -> Mint (a, t, n)) acct bool amt);
      (5, (let+ s = user and+ d = acct and+ t = bool and+ n = amt in Transfer (s, d, t, n)));
      (4, (let+ sp = acct and+ o = user and+ d = acct and+ t = bool and+ n = amt in
           Transfer_from (sp, o, d, t, n)));
      (2, (let+ o = user and+ s = acct and+ t = bool
           and+ n = frequency [ (1, return (-1)); (3, int_range 0 20_000) ] in
           Approve (o, s, t, n)));
      (2, return Checkpoint);
      (1, map (fun i -> Restore i) nat);
      (1, map (fun i -> Release i) nat) ]

let gen_bank_op =
  let open QCheck2.Gen in
  let user = int_range 0 3 in
  frequency
    [ (6, gen_erc_op);
      (6, (let+ u = user and+ e = int_range 0 2 and+ a0 = int_range 0 30_000
           and+ a1 = int_range 0 30_000 in
           Deposit (u, e, a0, a1)));
      (3, (let+ us = list_size (int_range 0 4) (triple user (int_range 0 100) (int_range 0 20_000))
           and+ ps = list_size (int_range 0 3) (pair (int_range 0 5) bool)
           and+ bad = frequency [ (9, return false); (1, return true) ] in
           Sync (us, ps, bad)));
      (2, (let+ b = user and+ a0 = int_range 0 20_000 and+ a1 = int_range 0 20_000
           and+ k = int_range 0 3 in
           Flash (b, a0, a1, k)));
      (1, return Halt);
      (1, map (fun u -> Exit u) user) ]

(* Checkpoints that may still be restored, oldest first: restoring one
   invalidates the newer ones, releasing one the older ones. *)
let restore_live live i restore =
  match live with
  | [] -> []
  | _ ->
    let k = i mod List.length live in
    restore (List.nth live k);
    List.filteri (fun j _ -> j <= k) live

let release_live live i release =
  match live with
  | [] -> []
  | _ ->
    let k = i mod List.length live in
    release (List.nth live k);
    List.filteri (fun j _ -> j >= k) live

let erc_agree real model =
  U256.equal (Erc20.total_supply real) (Ref_erc20.total_supply model)
  && Array.for_all
       (fun a ->
         U256.equal (Erc20.balance_of real a) (Ref_erc20.balance_of model a)
         && Array.for_all
              (fun s ->
                U256.equal
                  (Erc20.allowance real ~owner:a ~spender:s)
                  (Ref_erc20.allowance model ~owner:a ~spender:s))
              universe)
       universe

(* Apply an ERC-20 op to both sides; [None] for ops that are not ERC-20
   ops, else whether both sides agreed on success. *)
let erc_step (r0, r1) (m0, m1) op =
  let pick t0 = if t0 then (r0, m0) else (r1, m1) in
  let agree a b = Some (Result.is_ok a = Result.is_ok b) in
  match op with
  | Mint (a, t0, n) ->
    let r, m = pick t0 in
    Erc20.mint r (who a) (amount n);
    Ref_erc20.mint m (who a) (amount n);
    Some true
  | Transfer (s, d, t0, n) ->
    let r, m = pick t0 in
    agree
      (Erc20.transfer r ~source:(who s) ~dest:(who d) (amount n))
      (Ref_erc20.transfer m ~source:(who s) ~dest:(who d) (amount n))
  | Transfer_from (sp, o, d, t0, n) ->
    let r, m = pick t0 in
    agree
      (Erc20.transfer_from r ~spender:(who sp) ~source:(who o) ~dest:(who d) (amount n))
      (Ref_erc20.transfer_from m ~spender:(who sp) ~source:(who o) ~dest:(who d) (amount n))
  | Approve (o, s, t0, n) ->
    let r, m = pick t0 in
    Erc20.approve r ~owner:(who o) ~spender:(who s) (amount n);
    Ref_erc20.approve m ~owner:(who o) ~spender:(who s) (amount n);
    Some true
  | _ -> None

let fresh_tokens () =
  let t0 = Chain.Token.make ~id:0 ~symbol:"TKA" and t1 = Chain.Token.make ~id:1 ~symbol:"TKB" in
  let r0 = Erc20.deploy t0 and r1 = Erc20.deploy t1 in
  let m0 = Ref_erc20.deploy t0 and m1 = Ref_erc20.deploy t1 in
  (* dave starts empty, carol with a finite allowance that decrements. *)
  List.iter
    (fun (r, m) ->
      List.iter
        (fun a ->
          Erc20.mint r a (U256.of_int 1_000_000);
          Ref_erc20.mint m a (U256.of_int 1_000_000))
        [ alice; bob; carol ];
      List.iter
        (fun (owner, n) ->
          Erc20.approve r ~owner ~spender:(who 4) n;
          Ref_erc20.approve m ~owner ~spender:(who 4) n)
        [ (alice, U256.max_value); (bob, U256.max_value); (carol, U256.of_int 300_000) ])
    [ (r0, m0); (r1, m1) ];
  ((r0, r1), (m0, m1))

let erc20_matches_model ops =
  let (r0, r1), (m0, m1) = fresh_tokens () in
  let rec go live = function
    | [] -> true
    | op :: rest ->
      let ok, live =
        match op with
        | Checkpoint ->
          (true, live @ [ (Erc20.checkpoint r0, Erc20.checkpoint r1,
                           Ref_erc20.checkpoint m0, Ref_erc20.checkpoint m1) ])
        | Restore i ->
          ( true,
            restore_live live i (fun (c0, c1, d0, d1) ->
                Erc20.restore r0 c0;
                Erc20.restore r1 c1;
                Ref_erc20.restore m0 d0;
                Ref_erc20.restore m1 d1) )
        | Release i ->
          ( true,
            release_live live i (fun (c0, c1, _, _) ->
                Erc20.release r0 c0;
                Erc20.release r1 c1) )
        | op -> (Option.value ~default:true (erc_step (r0, r1) (m0, m1) op), live)
      in
      ok && erc_agree r0 m0 && erc_agree r1 m1 && go live rest
  in
  go [] ops

let dummy_sk, dummy_vk = Bls.keygen (Amm_crypto.Rng.create "journal-model")
let dummy_sig = Bls.sign dummy_sk (Bytes.of_string "unchecked")

type banks = {
  real : Token_bank.t;
  model : Ref_token_bank.t;
  rt : Erc20.t * Erc20.t;
  mt : Ref_erc20.t * Ref_erc20.t;
  pool_id : int;
}

let fresh_banks () =
  let ((r0, r1) as rt), ((m0, m1) as mt) = fresh_tokens () in
  let real = Token_bank.deploy ~token0:r0 ~token1:r1 ~genesis_committee_vk:dummy_vk in
  let model = Ref_token_bank.deploy ~token0:m0 ~token1:m1 in
  let pool_id = Token_bank.create_pool real ~flash_fee_pips:3000 in
  ignore (Ref_token_bank.create_pool model ~flash_fee_pips:3000);
  { real; model; rt; mt; pool_id }

let banks_agree b =
  let r0, r1 = b.rt and m0, m1 = b.mt in
  let pair_eq (a0, a1) (b0, b1) = U256.equal a0 b0 && U256.equal a1 b1 in
  let synced = Token_bank.last_synced_epoch b.real in
  let deposits_agree e =
    let real = Token_bank.deposits_for_epoch b.real ~epoch:e in
    let model = Ref_token_bank.deposits_for_epoch b.model ~epoch:e in
    List.length real = List.length model
    && List.for_all2 (fun (a, d) (a', d') -> Address.equal a a' && pair_eq d d') real model
    && pair_eq (Token_bank.deposit_total b.real ~epoch:e)
         (List.fold_left
            (fun (s0, s1) (_, (d0, d1)) -> (U256.add s0 d0, U256.add s1 d1))
            (U256.zero, U256.zero) model)
  in
  let claim_eq (c : Token_bank.exit_claim) (c' : Ref_token_bank.exit_claim) =
    pair_eq (c.claim0, c.claim1) (c'.claim0, c'.claim1)
    && pair_eq (c.refund0, c.refund1) (c'.refund0, c'.refund1)
    && c.positions_closed = c'.positions_closed
  in
  erc_agree r0 m0 && erc_agree r1 m1
  && synced = b.model.Ref_token_bank.synced_epoch
  && Token_bank.is_halted b.real = b.model.Ref_token_bank.halted
  && List.for_all deposits_agree (List.init (synced + 6) Fun.id)
  && Token_bank.storage_words b.real = Ref_token_bank.storage_words b.model
  && pair_eq (Token_bank.total_custody b.real) (Ref_token_bank.total_custody b.model)
  && (match (Token_bank.pool b.real b.pool_id, Ref_token_bank.pool b.model b.pool_id) with
     | Some p, Some p' ->
       pair_eq (p.Token_bank.balance0, p.Token_bank.balance1)
         (p'.Ref_token_bank.balance0, p'.Ref_token_bank.balance1)
     | _ -> false)
  && Bytes.equal (Token_bank.positions_bytes b.real) (Ref_token_bank.positions_bytes b.model)
  && Array.for_all
       (fun a ->
         match (Token_bank.exit_of b.real a, Ref_token_bank.exit_of b.model a) with
         | None, None -> true
         | Some c, Some c' -> claim_eq c c'
         | _ -> false)
       universe

(* A payload for the next epoch that conserves tokens (unless [bad]):
   each user listed once, payins a share of their deposit, payouts
   capped by what the pool plus payins can cover. *)
let sync_payload b users positions ~bad =
  let users =
    List.rev
      (List.fold_left
         (fun seen ((u, _, _) as e) ->
           if List.exists (fun (u', _, _) -> u' = u) seen then seen else e :: seen)
         [] users)
  in
  let epoch = Token_bank.last_synced_epoch b.real + 1 in
  let pool0, pool1 =
    match Token_bank.pool b.real b.pool_id with
    | Some p -> (p.Token_bank.balance0, p.Token_bank.balance1)
    | None -> (U256.zero, U256.zero)
  in
  let pct d p = U256.mul_div d (U256.of_int p) (U256.of_int 100) in
  let entries =
    List.map
      (fun (u, p, out) ->
        let d0, d1 = Token_bank.deposit_of b.real ~epoch (who u) in
        (who u, pct d0 p, pct d1 p, U256.of_int out, U256.of_int (out / 2)))
      users
  in
  let avail0 = ref (List.fold_left (fun a (_, i0, _, _, _) -> U256.add a i0) pool0 entries) in
  let avail1 = ref (List.fold_left (fun a (_, _, i1, _, _) -> U256.add a i1) pool1 entries) in
  let take avail want =
    let x = U256.min want !avail in
    avail := U256.sub !avail x;
    x
  in
  let users =
    List.map
      (fun (user, payin0, payin1, o0, o1) ->
        let payout0 = take avail0 o0 in
        let payout1 = take avail1 o1 in
        { Sync_payload.user; payin0; payin1; payout0; payout1 })
      entries
  in
  let positions =
    List.map
      (fun (i, deleted) ->
        { Sync_payload.pos_id =
            Chain.Ids.Position_id.of_hash
              (Amm_crypto.Sha256.digest_string (Printf.sprintf "model-pos-%d" i));
          owner = who (i mod 4); lower_tick = -60 * (i + 1); upper_tick = 60;
          liquidity = U256.of_int (1000 + i); amount0 = U256.of_int (100 * i);
          amount1 = U256.of_int (50 * i); fees0 = U256.of_int i; fees1 = U256.zero;
          deleted })
      positions
  in
  { Sync_payload.epoch; pool = b.pool_id;
    pool_balance0 = (if bad then U256.add !avail0 U256.one else !avail0);
    pool_balance1 = !avail1; users; positions; next_committee_vk = dummy_vk }

let bank_step b op =
  let r0, _ = b.rt and m0, _ = b.mt in
  let agree a c = Result.is_ok a = Result.is_ok c in
  match op with
  | Deposit (u, ahead, a0, a1) ->
    let for_epoch = Token_bank.last_synced_epoch b.real + 1 + ahead in
    agree
      (Token_bank.deposit b.real ~user:(who u) ~for_epoch ~amount0:(amount a0)
         ~amount1:(amount a1))
      (Ref_token_bank.deposit b.model ~user:(who u) ~for_epoch ~amount0:(amount a0)
         ~amount1:(amount a1))
  | Sync (users, positions, bad) ->
    let p = sync_payload b users positions ~bad in
    agree
      (Token_bank.sync ~check_signatures:false b.real ~signed:[ (p, dummy_sig) ])
      (Ref_token_bank.sync b.model ~payloads:[ p ])
  | Flash (u, a0, a1, kind) ->
    let borrower = who u in
    (* 0: repays; 1: the callback refuses; 2: the borrower gives its
       token0 away and cannot repay; 3: it gives half the loan away. *)
    let callback transfer balance_of ~fee0:_ ~fee1:_ =
      match kind with
      | 0 -> Ok ()
      | 1 -> Error "callback refused"
      | 2 -> transfer (balance_of borrower)
      | _ -> transfer (U256.of_int (a0 / 2))
    in
    agree
      (Token_bank.flash b.real ~pool:b.pool_id ~borrower ~amount0:(amount a0)
         ~amount1:(amount a1)
         ~callback:
           (callback
              (fun n -> Erc20.transfer r0 ~source:borrower ~dest:carol n)
              (Erc20.balance_of r0)))
      (Ref_token_bank.flash b.model ~pool:b.pool_id ~borrower ~amount0:(amount a0)
         ~amount1:(amount a1)
         ~callback:
           (callback
              (fun n -> Ref_erc20.transfer m0 ~source:borrower ~dest:carol n)
              (Ref_erc20.balance_of m0)))
  | Halt -> agree (Token_bank.halt b.real ~epoch:0) (Ref_token_bank.halt b.model)
  | Exit u ->
    agree
      (Token_bank.emergency_exit b.real ~claimant:(who u))
      (Ref_token_bank.emergency_exit b.model ~claimant:(who u))
  | op -> Option.value ~default:true (erc_step b.rt b.mt op)

let bank_matches_model ops =
  let b = fresh_banks () in
  let rec go live = function
    | [] -> true
    | op :: rest ->
      let ok, live =
        match op with
        | Checkpoint ->
          (true, live @ [ (Token_bank.checkpoint b.real, Ref_token_bank.checkpoint b.model) ])
        | Restore i ->
          ( true,
            restore_live live i (fun (c, c') ->
                Token_bank.restore b.real c;
                Ref_token_bank.restore b.model c') )
        | Release i ->
          ( true,
            release_live live i (fun (c, c') ->
                Token_bank.release_checkpoint b.real c;
                Ref_token_bank.release_checkpoint b.model c') )
        | op -> (bank_step b op, live)
      in
      ok && banks_agree b && go live rest
  in
  go [] ops

let journal_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"journaled Erc20 = persistent-map model"
         ~print:show_ops
         QCheck2.Gen.(list_size (int_range 1 80) gen_erc_op)
         erc20_matches_model);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"journaled Token_bank = persistent-map model"
         ~print:show_ops
         QCheck2.Gen.(list_size (int_range 1 80) gen_bank_op)
         bank_matches_model) ]

(* First write only: a balance rewritten 10 000 times between two
   checkpoints is recorded once, and a token never checkpointed records
   nothing at all. *)
let test_journal_first_write_bound () =
  let erc = Erc20.deploy (Chain.Token.make ~id:9 ~symbol:"T") in
  Erc20.mint erc alice (U256.of_int 1_000_000);
  for _ = 1 to 1_000 do
    ignore (Erc20.transfer erc ~source:alice ~dest:bob U256.one)
  done;
  Alcotest.(check int) "never checkpointed: nothing recorded" 0 (Erc20.journal_length erc);
  let ck = Erc20.checkpoint erc in
  for _ = 1 to 10_000 do
    ignore (Erc20.transfer erc ~source:alice ~dest:bob U256.one)
  done;
  let entries = Erc20.journal_length erc in
  ignore (Erc20.checkpoint erc);
  Alcotest.(check bool) (Printf.sprintf "10 000 transfers add %d <= 2 entries" entries) true
    (entries <= 2);
  Erc20.restore erc ck;
  Alcotest.check check_u256 "restore rewinds all 10 000" (U256.of_int 999_000)
    (Erc20.balance_of erc alice)

let test_erc20_semantics () =
  let erc = Erc20.deploy (Chain.Token.make ~id:9 ~symbol:"T") in
  Erc20.mint erc alice (U256.of_int 100);
  (match Erc20.transfer erc ~source:alice ~dest:bob (U256.of_int 30) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.check check_u256 "balances move" (U256.of_int 70) (Erc20.balance_of erc alice);
  (match Erc20.transfer erc ~source:alice ~dest:bob (U256.of_int 71) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overdraft");
  (* transfer_from needs allowance. *)
  (match
     Erc20.transfer_from erc ~spender:bob ~source:alice ~dest:bob (U256.of_int 10)
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "no allowance");
  Erc20.approve erc ~owner:alice ~spender:bob (U256.of_int 10);
  (match
     Erc20.transfer_from erc ~spender:bob ~source:alice ~dest:bob (U256.of_int 10)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.check check_u256 "allowance consumed" U256.zero
    (Erc20.allowance erc ~owner:alice ~spender:bob)

let test_gas_meter () =
  let m = Gas.meter () in
  Gas.charge m "a" 10;
  Gas.charge m "b" 20;
  Gas.charge m "a" 5;
  Alcotest.(check int) "total" 35 (Gas.total m);
  Alcotest.(check (list (pair string int))) "merged breakdown" [ ("a", 15); ("b", 20) ]
    (Gas.breakdown m);
  Alcotest.(check int) "keccak cost" (30 + 6 * 2) (Gas.keccak_cost 64)

let () =
  Alcotest.run "tokenbank"
    [ ( "deposits",
        [ Alcotest.test_case "moves tokens" `Quick test_deposit_moves_tokens;
          Alcotest.test_case "epoch scoping" `Quick test_deposit_epoch_scoping;
          Alcotest.test_case "insufficient balance" `Quick test_deposit_insufficient_balance;
          Alcotest.test_case "gas metered" `Quick test_deposit_gas_metered ] );
      ( "sync",
        [ Alcotest.test_case "happy path" `Quick test_sync_happy_path;
          Alcotest.test_case "bad signature" `Quick test_sync_bad_signature_rejected;
          Alcotest.test_case "tampered payload" `Quick test_sync_tampered_payload_rejected;
          Alcotest.test_case "conservation" `Quick test_sync_conservation_violation_rejected;
          Alcotest.test_case "wrong epoch" `Quick test_sync_wrong_epoch_rejected;
          Alcotest.test_case "payout + refund" `Quick test_sync_payout_and_refund;
          Alcotest.test_case "payin shortfall clipped" `Quick
            test_sync_payin_exceeding_deposit_clipped_from_payout;
          Alcotest.test_case "mass-sync key chain" `Quick test_mass_sync_key_chain;
          Alcotest.test_case "gas itemization" `Quick test_sync_gas_itemization;
          Alcotest.test_case "position lifecycle" `Quick test_position_lifecycle_through_sync;
          Alcotest.test_case "empty epoch" `Quick test_sync_empty_epoch;
          Alcotest.test_case "replay rejected" `Quick test_sync_replay_rejected;
          Alcotest.test_case "multi-pool" `Quick test_multi_pool_sync ] );
      ( "flash",
        [ Alcotest.test_case "repaid" `Quick test_flash_repaid;
          Alcotest.test_case "not repaid inverts" `Quick test_flash_not_repaid_inverts;
          Alcotest.test_case "snapshot unaffected" `Quick
            test_flash_pool_balances_unchanged_for_sidechain ] );
      ( "checkpoint",
        [ Alcotest.test_case "restore + resync" `Quick test_checkpoint_restore;
          Alcotest.test_case "O(dirty) journal bound" `Quick test_checkpoint_o_dirty ] );
      ( "emergency-exit",
        [ Alcotest.test_case "halt freezes bank" `Quick test_halt_freezes_bank;
          Alcotest.test_case "pro-rata exit + conservation" `Quick
            test_exit_pro_rata_and_conservation;
          Alcotest.test_case "reconcile after exits" `Quick test_reconcile_after_exits;
          Alcotest.test_case "reconcile voids exited users" `Quick
            test_reconcile_voids_exited_users ] );
      ( "encoding/substrate",
        [ Alcotest.test_case "abi sizes" `Quick test_abi_sizes;
          Alcotest.test_case "erc20" `Quick test_erc20_semantics;
          Alcotest.test_case "gas meter" `Quick test_gas_meter ]
        @ abi_size_props @ signing_stream_props );
      ( "deposit order",
        [ Alcotest.test_case "deposits_for_epoch sorted" `Quick
            test_deposits_for_epoch_sorted;
          Alcotest.test_case "sync drain in address order" `Quick
            (drain_order ~reconcile:false);
          Alcotest.test_case "reconcile drain in address order" `Quick
            (drain_order ~reconcile:true) ] );
      ( "journal",
        Alcotest.test_case "first-write bound" `Quick test_journal_first_write_bound
        :: journal_props ) ]
