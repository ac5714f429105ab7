(* The sidechain: dual deposit tracking, the binary codec, meta/summary
   blocks with pruning, and the transaction processor with its Fig. 5
   summary rules — including the conservation property that TokenBank
   enforces at sync time. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Tx = Chain.Tx
module Position_id = Chain.Ids.Position_id
open Sidechain

let u = U256.of_string
let check_u256 = Alcotest.testable U256.pp U256.equal
let one_e18 = u "1000000000000000000"
let one_e21 = u "1000000000000000000000"
let one_e24 = u "1000000000000000000000000"

let alice = Address.of_label "alice"
let bob = Address.of_label "bob"

let dummy_pk =
  let rng = Amm_crypto.Rng.create "sidechain-tests" in
  snd (Amm_crypto.Bls.keygen rng)

(* ------------------------------------------------------------------ *)
(* Deposits                                                            *)
(* ------------------------------------------------------------------ *)

let deposits () =
  Deposits.create ~snapshot:[ (alice, (one_e18, one_e18)); (bob, (one_e21, U256.zero)) ]

let test_deposits_consume_main_first () =
  let d = deposits () in
  Deposits.credit_side d alice ~amount0:one_e18 ~amount1:U256.zero;
  (* Half the mainchain deposit: the sidechain one is not touched. *)
  let half = U256.div one_e18 U256.two in
  (match Deposits.consume d alice ~amount0:half ~amount1:U256.zero with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.check check_u256 "main pays first" half (fst (Deposits.payin d alice));
  Alcotest.check check_u256 "side untouched" one_e18 (fst (Deposits.payout d alice));
  (match Deposits.consume d alice ~amount0:(U256.add half one_e18) ~amount1:U256.zero with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "both drained" false
    (Deposits.covers d alice ~amount0:U256.one ~amount1:U256.zero);
  Alcotest.check check_u256 "payin = initial main consumed" one_e18
    (fst (Deposits.payin d alice));
  Alcotest.check check_u256 "payout = remaining side" U256.zero
    (fst (Deposits.payout d alice))

let test_deposits_atomic_failure () =
  let d = deposits () in
  (* token1 is uncovered: nothing must change, including token0. *)
  (match Deposits.consume d alice ~amount0:one_e18 ~amount1:(U256.mul one_e18 U256.two) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "uncovered consume accepted");
  Alcotest.check check_u256 "token0 untouched" U256.zero (fst (Deposits.payin d alice));
  Alcotest.(check bool) "token0 still covered" true
    (Deposits.covers d alice ~amount0:one_e18 ~amount1:U256.zero)

let test_deposits_unknown_user_empty () =
  let d = deposits () in
  let stranger = Address.of_label "stranger" in
  Alcotest.(check bool) "no balance" false
    (Deposits.covers d stranger ~amount0:U256.one ~amount1:U256.zero);
  match Deposits.consume d stranger ~amount0:U256.one ~amount1:U256.zero with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stranger spent"

(* A covered swap's deposit traffic — the coverage check, the consume of
   its input and the credit of its output — reads and writes the slab
   slots in place: once the user's row exists and is marked, it costs no
   allocation at all. *)
let test_deposits_in_place_allocation () =
  let d = deposits () in
  let amount = u "1000" in
  let swap () =
    if Deposits.covers d alice ~amount0:amount ~amount1:U256.zero then begin
      (match Deposits.consume d alice ~amount0:amount ~amount1:U256.zero with
      | Ok () -> ()
      | Error e -> failwith e);
      Deposits.credit_side d alice ~amount0:U256.zero ~amount1:amount
    end
  in
  swap ();
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    swap ()
  done;
  Alcotest.(check (float 0.)) "words" 0. (Gc.minor_words () -. before);
  Alcotest.check check_u256 "101 swaps consumed" (U256.mul amount (U256.of_int 101))
    (fst (Deposits.payin d alice));
  Alcotest.check check_u256 "and credited" (U256.mul amount (U256.of_int 101))
    (snd (Deposits.payout d alice))

(* The incrementally-maintained sorted index must agree with a plain
   sort of every user ever touched, across any interleaving of a
   sorted epoch-start snapshot with mid-epoch account creations. *)
let users_sorted_prop =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 60) (int_range 0 199))
        (list_size (int_range 0 60) (int_range 0 199)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"sorted index = sort oracle" gen
       (fun (snapshot_ids, mid_ids) ->
         let addr i = Address.of_label (Printf.sprintf "qc-user-%03d" i) in
         let snapshot_users =
           List.sort_uniq Address.compare (List.map addr snapshot_ids)
         in
         let d =
           Deposits.create
             ~snapshot:(List.map (fun u -> (u, (one_e18, U256.zero))) snapshot_users)
         in
         (* Mid-epoch accounts appear out of order, via sidechain credits
            and balance probes on fresh addresses. *)
         List.iteri
           (fun k i ->
             let u = addr i in
             if k mod 2 = 0 then
               Deposits.credit_side d u ~amount0:U256.one ~amount1:U256.zero
             else ignore (Deposits.covers d u ~amount0:U256.zero ~amount1:U256.zero))
           mid_ids;
         let oracle =
           List.sort_uniq Address.compare
             (snapshot_users @ List.map addr mid_ids)
         in
         let got = Deposits.users_sorted d in
         List.length got = List.length oracle
         && List.for_all2 Address.equal got oracle))

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_codec_entry_sizes () =
  let user_entry =
    { Tokenbank.Sync_payload.user = alice; payin0 = one_e18; payin1 = U256.zero;
      payout0 = U256.zero; payout1 = one_e18 }
  in
  Alcotest.(check int) "user entry 97 B (Table 7)" 97
    (Bytes.length (Codec.encode_user_entry user_entry));
  let position_entry =
    { Tokenbank.Sync_payload.pos_id = Position_id.of_hash (Amm_crypto.Sha256.digest_string "p");
      owner = alice; lower_tick = -887220; upper_tick = 887220; liquidity = one_e21;
      amount0 = one_e24; amount1 = one_e24; fees0 = one_e18; fees1 = U256.zero;
      deleted = false }
  in
  Alcotest.(check int) "position entry 215 B (Table 7)" 215
    (Bytes.length (Codec.encode_position_entry position_entry))

let test_codec_overflow_guard () =
  let too_big =
    { Tokenbank.Sync_payload.user = alice; payin0 = U256.shift_left U256.one 200;
      payin1 = U256.zero; payout0 = U256.zero; payout1 = U256.zero }
  in
  Alcotest.check_raises "amount beyond 128 bits"
    (Invalid_argument "Codec.amount16: needs more than 128 bits") (fun () ->
      ignore (Codec.encode_user_entry too_big))

(* ------------------------------------------------------------------ *)
(* Blocks and pruning                                                  *)
(* ------------------------------------------------------------------ *)

let dummy_payload ~epoch =
  { Tokenbank.Sync_payload.epoch; pool = 0; pool_balance0 = U256.zero;
    pool_balance1 = U256.zero; users = []; positions = [];
    next_committee_vk = dummy_pk }

let make_tx ~round payload =
  Tx.create ~issuer:alice ~issuer_pk:dummy_pk ~pool:0 ~issued_round:round ~issued_at:0.0
    payload

let some_swap ~round =
  make_tx ~round
    (Tx.Swap
       { zero_for_one = true; kind = Tx.Exact_input; amount_specified = one_e18;
         amount_limit = U256.zero; sqrt_price_limit = U256.zero; deadline = round + 100 })

let test_blocks_prune_epoch () =
  let chain = Blocks.create ~mainchain_ref:(Bytes.make 32 'x') in
  for epoch = 0 to 2 do
    for r = 0 to 4 do
      Blocks.append_meta chain
        (Blocks.make_meta ~epoch ~round:((epoch * 5) + r) ~view_changes:0
           [ some_swap ~round:r ])
    done;
    Blocks.append_summary chain
      { Blocks.s_epoch = epoch;
        s_size = Codec.summary_block_size (dummy_payload ~epoch);
        s_rounds_covered = (epoch * 5, (epoch * 5) + 4) }
  done;
  let before = Blocks.stored_bytes chain in
  let reclaimed = Blocks.prune_epoch chain ~epoch:0 in
  Alcotest.(check bool) "bytes reclaimed" true (reclaimed > 0);
  Alcotest.(check int) "stored drops" (before - reclaimed) (Blocks.stored_bytes chain);
  Alcotest.(check int) "cumulative unchanged" before (Blocks.cumulative_bytes chain);
  Alcotest.(check int) "meta blocks left" 10 (Blocks.meta_count_stored chain);
  (* Summaries are permanent. *)
  Alcotest.(check int) "summaries intact" 3 (List.length (Blocks.summaries chain));
  (* Pruning the same epoch again is a no-op. *)
  Alcotest.(check int) "idempotent" 0 (Blocks.prune_epoch chain ~epoch:0)

let test_meta_block_inclusion_proofs () =
  let txs = List.init 7 (fun i -> some_swap ~round:i) in
  let meta = Blocks.make_meta ~epoch:0 ~round:0 ~view_changes:0 txs in
  List.iter
    (fun (tx : Tx.t) ->
      match Blocks.prove_inclusion meta ~txs tx.Tx.id with
      | Some proof ->
        Alcotest.(check bool) "proof verifies" true
          (Blocks.verify_inclusion meta tx.Tx.id proof)
      | None -> Alcotest.fail "missing proof")
    txs;
  (* A transaction from another block has no proof, and a stolen proof
     fails verification. *)
  let foreign = some_swap ~round:99 in
  Alcotest.(check bool) "foreign tx unprovable" true
    (Blocks.prove_inclusion meta ~txs foreign.Tx.id = None);
  (* The block keeps no body: a body that does not rebuild its root
     proves nothing, even for a transaction it does contain. *)
  Alcotest.(check bool) "foreign body unprovable" true
    (Blocks.prove_inclusion meta ~txs:(foreign :: txs) (List.hd txs).Tx.id = None);
  match Blocks.prove_inclusion meta ~txs (List.hd txs).Tx.id with
  | Some proof ->
    Alcotest.(check bool) "stolen proof fails" false
      (Blocks.verify_inclusion meta foreign.Tx.id proof)
  | None -> Alcotest.fail "missing proof"

let test_meta_block_size_accounts_txs () =
  let tx = some_swap ~round:0 in
  let meta = Blocks.make_meta ~epoch:0 ~round:0 ~view_changes:0 [ tx; tx ] in
  Alcotest.(check int) "header + wire bytes"
    (Blocks.meta_header_size + (2 * tx.Tx.wire_size))
    meta.Blocks.m_size

(* ------------------------------------------------------------------ *)
(* Processor                                                           *)
(* ------------------------------------------------------------------ *)

let fresh_processor ?(snapshot_deposits = [ (alice, (one_e24, one_e24)); (bob, (one_e24, one_e24)) ])
    () =
  let pool =
    Uniswap.Pool.create ~pool_id:0
      ~token0:(Chain.Token.make ~id:0 ~symbol:"TKA")
      ~token1:(Chain.Token.make ~id:1 ~symbol:"TKB")
      ~fee_pips:3000 ~tick_spacing:60 ~sqrt_price:Amm_math.Q96.q96
  in
  let snapshot =
    { Tokenbank.Token_bank.snap_epoch = 0; snap_deposits = snapshot_deposits;
      snap_pool_balances = [ (0, (U256.zero, U256.zero)) ]; snap_positions = [] }
  in
  Processor.begin_epoch ~pool ~snapshot ~verify_signatures:false ()

let seed_liquidity processor =
  let tx =
    make_tx ~round:0
      (Tx.Mint
         { lower_tick = -887220; upper_tick = 887220; amount0_desired = one_e21;
           amount1_desired = one_e21; target = Tx.New_position })
  in
  match Processor.process processor ~current_round:0 tx with
  | Ok () -> Uniswap.Position.derive_id ~minter:alice ~tx_id:tx.Tx.id
  | Error e -> failwith e

let test_processor_swap_updates_deposits () =
  let p = fresh_processor () in
  let _ = seed_liquidity p in
  let swap = some_swap ~round:1 in
  (match Processor.process p ~current_round:1 swap with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let payin0, _ = Deposits.payin (Processor.deposits p) alice in
  let _, payout1 = Deposits.payout (Processor.deposits p) alice in
  Alcotest.(check bool) "payin includes swap input" true (U256.ge payin0 one_e18);
  Alcotest.(check bool) "payout holds swap output" true (U256.gt payout1 U256.zero)

let test_processor_deadline () =
  let p = fresh_processor () in
  let _ = seed_liquidity p in
  let swap =
    make_tx ~round:1
      (Tx.Swap
         { zero_for_one = true; kind = Tx.Exact_input; amount_specified = one_e18;
           amount_limit = U256.zero; sqrt_price_limit = U256.zero; deadline = 5 })
  in
  match Processor.process p ~current_round:6 swap with
  | Error "swap: deadline passed" -> ()
  | Error e -> Alcotest.failf "wrong rejection: %s" e
  | Ok () -> Alcotest.fail "expired swap accepted"

let test_processor_uncovered_swap_rejected () =
  let p = fresh_processor ~snapshot_deposits:[ (alice, (one_e24, one_e24)) ] () in
  let _ = seed_liquidity p in
  (* Bob never deposited. *)
  let swap =
    Tx.create ~issuer:bob ~issuer_pk:dummy_pk ~pool:0 ~issued_round:1 ~issued_at:0.0
      (Tx.Swap
         { zero_for_one = true; kind = Tx.Exact_input; amount_specified = one_e18;
           amount_limit = U256.zero; sqrt_price_limit = U256.zero; deadline = 100 })
  in
  match Processor.process p ~current_round:1 swap with
  | Error "swap: deposit not covered" -> ()
  | Error e -> Alcotest.failf "wrong rejection: %s" e
  | Ok () -> Alcotest.fail "uncovered swap accepted"

let test_processor_sidechain_credit_spendable () =
  (* A user whose mainchain deposit only covers one swap can keep trading
     with the sidechain credit from the output (§4.2). *)
  let p =
    fresh_processor
      ~snapshot_deposits:[ (alice, (one_e24, one_e24)); (bob, (one_e18, U256.zero)) ] ()
  in
  let _ = seed_liquidity p in
  let swap_b zero_for_one amount =
    Tx.create ~issuer:bob ~issuer_pk:dummy_pk ~pool:0 ~issued_round:1 ~issued_at:0.0
      (Tx.Swap
         { zero_for_one; kind = Tx.Exact_input; amount_specified = amount;
           amount_limit = U256.zero; sqrt_price_limit = U256.zero; deadline = 100 })
  in
  (match Processor.process p ~current_round:1 (swap_b true (u "500000000000000000")) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "first swap: %s" e);
  (* Bob now holds ~0.4985e18 of sidechain credit in token1 (fee taken);
     spending a bit less than the output must succeed. *)
  match Processor.process p ~current_round:1 (swap_b false (u "400000000000000000")) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sidechain credit not spendable: %s" e

let test_processor_mint_burn_collect_cycle () =
  let p = fresh_processor () in
  let _genesis = seed_liquidity p in
  let mint =
    make_tx ~round:1
      (Tx.Mint
         { lower_tick = -600; upper_tick = 600; amount0_desired = one_e18;
           amount1_desired = one_e18; target = Tx.New_position })
  in
  (match Processor.process p ~current_round:1 mint with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mint: %s" e);
  let pid = Uniswap.Position.derive_id ~minter:alice ~tx_id:mint.Tx.id in
  Alcotest.(check bool) "position exists" true
    (Uniswap.Pool.find_position (Processor.pool p) pid <> None);
  (* Swap to accrue fees, then collect. *)
  (match Processor.process p ~current_round:2 (some_swap ~round:2) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "swap: %s" e);
  let collect =
    make_tx ~round:3
      (Tx.Collect
         { collect_position = pid; fees0_requested = U256.max_value;
           fees1_requested = U256.max_value })
  in
  (match Processor.process p ~current_round:3 collect with
  | Ok () -> ()
  | Error e -> Alcotest.failf "collect: %s" e);
  (* Full burn deletes the position and pays principal plus residual fees. *)
  let payout_before = Deposits.payout (Processor.deposits p) alice in
  let burn =
    make_tx ~round:4
      (Tx.Burn
         { burn_position = pid; amount0_requested = U256.max_value;
           amount1_requested = U256.max_value })
  in
  (match Processor.process p ~current_round:4 burn with
  | Ok () -> ()
  | Error e -> Alcotest.failf "burn: %s" e);
  Alcotest.(check bool) "position deleted" true
    (Uniswap.Pool.find_position (Processor.pool p) pid = None);
  let payout_after = Deposits.payout (Processor.deposits p) alice in
  Alcotest.(check bool) "burn proceeds in payout" true
    (U256.gt (fst payout_after) (fst payout_before));
  let stats = Processor.stats p in
  Alcotest.(check int) "all processed" 5 stats.Processor.processed;
  Alcotest.(check int) "one burn" 1 stats.Processor.burns

let test_processor_burn_foreign_position_rejected () =
  let p = fresh_processor () in
  let pid = seed_liquidity p in
  let burn =
    Tx.create ~issuer:bob ~issuer_pk:dummy_pk ~pool:0 ~issued_round:1 ~issued_at:0.0
      (Tx.Burn
         { burn_position = pid; amount0_requested = U256.one; amount1_requested = U256.one })
  in
  match Processor.process p ~current_round:1 burn with
  | Error _ ->
    Alcotest.(check int) "counted as rejection" 1 (Processor.stats p).Processor.rejected
  | Ok () -> Alcotest.fail "foreign burn accepted"

let test_processor_signature_policy () =
  let pool =
    Uniswap.Pool.create ~pool_id:0
      ~token0:(Chain.Token.make ~id:0 ~symbol:"TKA")
      ~token1:(Chain.Token.make ~id:1 ~symbol:"TKB")
      ~fee_pips:3000 ~tick_spacing:60 ~sqrt_price:Amm_math.Q96.q96
  in
  let rng = Amm_crypto.Rng.create "sig-policy" in
  let sk, pk = Amm_crypto.Bls.keygen rng in
  let addr = Address.of_public_key pk in
  let snapshot =
    { Tokenbank.Token_bank.snap_epoch = 0; snap_deposits = [ (addr, (one_e24, one_e24)) ];
      snap_pool_balances = [ (0, (U256.zero, U256.zero)) ]; snap_positions = [] }
  in
  let p = Processor.begin_epoch ~pool ~snapshot ~verify_signatures:true () in
  let mint payload_sign =
    Tx.create ?sign:payload_sign ~issuer:addr ~issuer_pk:pk ~pool:0 ~issued_round:0
      ~issued_at:0.0
      (Tx.Mint
         { lower_tick = -887220; upper_tick = 887220; amount0_desired = one_e21;
           amount1_desired = one_e21; target = Tx.New_position })
  in
  (match Processor.process p ~current_round:0 (mint None) with
  | Error "invalid signature" -> ()
  | Error e -> Alcotest.failf "wrong rejection: %s" e
  | Ok () -> Alcotest.fail "unsigned accepted under verify_signatures");
  match Processor.process p ~current_round:0 (mint (Some sk)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "signed rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Summary construction and conservation                               *)
(* ------------------------------------------------------------------ *)

let conservation_holds (payload : Tokenbank.Sync_payload.t) ~initial0 ~initial1 =
  let sum f =
    List.fold_left (fun acc e -> U256.add acc (f e)) U256.zero payload.Tokenbank.Sync_payload.users
  in
  let in0 = sum (fun e -> e.Tokenbank.Sync_payload.payin0) in
  let in1 = sum (fun e -> e.Tokenbank.Sync_payload.payin1) in
  let out0 = sum (fun e -> e.Tokenbank.Sync_payload.payout0) in
  let out1 = sum (fun e -> e.Tokenbank.Sync_payload.payout1) in
  U256.equal payload.Tokenbank.Sync_payload.pool_balance0
    (U256.sub (U256.add initial0 in0) out0)
  && U256.equal payload.Tokenbank.Sync_payload.pool_balance1
       (U256.sub (U256.add initial1 in1) out1)

let test_summary_conservation_simple () =
  let p = fresh_processor () in
  let _ = seed_liquidity p in
  List.iter
    (fun r ->
      match Processor.process p ~current_round:r (some_swap ~round:r) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ 1; 2; 3 ];
  let payload = Processor.build_payload p ~epoch:0 ~next_committee_vk:dummy_pk in
  Alcotest.(check bool) "conservation" true
    (conservation_holds payload ~initial0:U256.zero ~initial1:U256.zero);
  (* Delta semantics: bob deposited but never traded, so only alice —
     the one account with nonzero flows — appears in the summary. *)
  Alcotest.(check int) "one entry per active depositor" 1
    (List.length payload.Tokenbank.Sync_payload.users)

(* Shared driver for the random-op properties below: applies a generated
   op soup deterministically, numbering rounds from [round0]. *)
let apply_random_ops ?(round0 = 1) p ops =
  let minted = ref [] in
  List.iteri
    (fun i (op, magnitude, flag) ->
      let round = round0 + i in
               let amount = U256.mul (u "1000000000000000") (U256.of_int magnitude) in
               let issuer, issuer_pk = if flag then (alice, dummy_pk) else (bob, dummy_pk) in
               let mk payload =
                 Tx.create ~issuer ~issuer_pk ~pool:0 ~issued_round:round ~issued_at:0.0
                   payload
               in
               let tx =
                 match op with
                 | 0 | 1 ->
                   mk
                     (Tx.Swap
                        { zero_for_one = flag; kind = (if op = 0 then Tx.Exact_input else Tx.Exact_output);
                          amount_specified = amount;
                          amount_limit = (if op = 0 then U256.zero else U256.mul amount (U256.of_int 3));
                          sqrt_price_limit = U256.zero; deadline = round + 100 })
                 | 2 ->
                   mk
                     (Tx.Mint
                        { lower_tick = -1200; upper_tick = 1200; amount0_desired = amount;
                          amount1_desired = amount; target = Tx.New_position })
                 | 3 ->
                   (match !minted with
                   | (owner, pid) :: _ when Address.equal owner issuer ->
                     mk
                       (Tx.Burn
                          { burn_position = pid; amount0_requested = U256.max_value;
                            amount1_requested = U256.max_value })
                   | _ ->
                     mk
                       (Tx.Burn
                          { burn_position = Position_id.of_hash (Amm_crypto.Sha256.digest_string "none");
                            amount0_requested = amount; amount1_requested = amount }))
                 | _ ->
                   (match !minted with
                   | (_, pid) :: _ ->
                     mk
                       (Tx.Collect
                          { collect_position = pid; fees0_requested = U256.max_value;
                            fees1_requested = U256.max_value })
                   | [] ->
                     mk
                       (Tx.Collect
                          { collect_position = Position_id.of_hash (Amm_crypto.Sha256.digest_string "none");
                            fees0_requested = amount; fees1_requested = amount }))
               in
               (match (op, Processor.process p ~current_round:round tx) with
               | 2, Ok () ->
                 minted := (issuer, Uniswap.Position.derive_id ~minter:issuer ~tx_id:tx.Tx.id) :: !minted
               | 3, Ok () -> (match !minted with _ :: rest -> minted := rest | [] -> ())
               | _ -> ()))
    ops

(* The heavyweight properties: random op soups never violate
   conservation, and the O(Δ) incremental summary builder agrees with
   the full-scan reference byte for byte. *)
let gen_ops =
  QCheck2.Gen.(list_size (int_range 5 50) (triple (int_range 0 4) (int_range 1 500) bool))

let signing_bytes_agree pa pb =
  Bytes.equal (Tokenbank.Sync_payload.signing_bytes pa)
    (Tokenbank.Sync_payload.signing_bytes pb)

let summary_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30 ~name:"random epochs conserve tokens" gen_ops
         (fun ops ->
           let p = fresh_processor () in
           let _ = seed_liquidity p in
           apply_random_ops p ops;
           let payload = Processor.build_payload p ~epoch:0 ~next_committee_vk:dummy_pk in
           conservation_holds payload ~initial0:U256.zero ~initial1:U256.zero));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30
         ~name:"incremental summary = reference across a lagged sync"
         QCheck2.Gen.(pair gen_ops gen_ops)
         (fun (ops1, ops2) ->
           (* Two identical processors walk the same deterministic trace.
              One summarises incrementally (inclusion-time dirty marks
              plus the carry of still-unapplied epochs), the other with
              the O(positions) full scan the auditor uses. The committee
              would sign the same bytes either way. *)
           let make snapshot =
             let pool =
               Uniswap.Pool.create ~pool_id:0
                 ~token0:(Chain.Token.make ~id:0 ~symbol:"TKA")
                 ~token1:(Chain.Token.make ~id:1 ~symbol:"TKB")
                 ~fee_pips:3000 ~tick_spacing:60 ~sqrt_price:Amm_math.Q96.q96
             in
             (pool, Processor.begin_epoch ~pool ~snapshot ~verify_signatures:false ())
           in
           let snapshot0 =
             { Tokenbank.Token_bank.snap_epoch = 0;
               snap_deposits = [ (alice, (one_e24, one_e24)); (bob, (one_e24, one_e24)) ];
               snap_pool_balances = [ (0, (U256.zero, U256.zero)) ]; snap_positions = [] }
           in
           let pool_a, a = make snapshot0 in
           let pool_b, b = make snapshot0 in
           let _ = seed_liquidity a in
           let _ = seed_liquidity b in
           apply_random_ops a ops1;
           apply_random_ops b ops1;
           (* One position far out of range: no epoch-1 fee event marks
              it, so only the carry can keep it in the next summary. *)
           let mint_far p round =
             let tx =
               Tx.create ~issuer:alice ~issuer_pk:dummy_pk ~pool:0 ~issued_round:round
                 ~issued_at:0.0
                 (Tx.Mint
                    { lower_tick = 60000; upper_tick = 61200; amount0_desired = one_e18;
                      amount1_desired = one_e18; target = Tx.New_position })
             in
             match Processor.process p ~current_round:round tx with
             | Ok () -> ()
             | Error e -> failwith e
           in
           let far_round = 1 + List.length ops1 in
           mint_far a far_round;
           mint_far b far_round;
           let pa0 = Processor.build_payload a ~epoch:0 ~next_committee_vk:dummy_pk in
           let pb0 = Processor.build_payload_reference b ~epoch:0 ~next_committee_vk:dummy_pk in
           (* TokenBank lags: epoch 1 starts from the same unsynced
              snapshot, so epoch 0's reported positions ride along as
              carry on the incremental side. *)
           let carry =
             List.map
               (fun (e : Tokenbank.Sync_payload.position_entry) -> e.Tokenbank.Sync_payload.pos_id)
               pa0.Tokenbank.Sync_payload.positions
           in
           let snapshot1 = { snapshot0 with Tokenbank.Token_bank.snap_epoch = 1 } in
           let a1 =
             Processor.begin_epoch ~pool:pool_a ~snapshot:snapshot1 ~carry
               ~verify_signatures:false ()
           in
           let b1 =
             Processor.begin_epoch ~pool:pool_b ~snapshot:snapshot1 ~verify_signatures:false ()
           in
           let round0 = far_round + 1 in
           apply_random_ops ~round0 a1 ops2;
           apply_random_ops ~round0 b1 ops2;
           let pa1 = Processor.build_payload a1 ~epoch:1 ~next_committee_vk:dummy_pk in
           let pb1 = Processor.build_payload_reference b1 ~epoch:1 ~next_committee_vk:dummy_pk in
           signing_bytes_agree pa0 pb0 && signing_bytes_agree pa1 pb1));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30
         ~name:"delta user entries = full-scan reference across a lagged sync"
         QCheck2.Gen.(pair gen_ops gen_ops)
         (fun (ops1, ops2) ->
           (* The user-side mirror of the position oracle above: the
              incremental builder works off the deposit table's
              balance-mutation candidate marks plus the user carry of
              still-unapplied summaries; the reference full-scans the
              sorted account index. Same bytes either way — including
              carried users who went idle (their zero entries must be
              filtered, not emitted) and carried users evicted from the
              deposit snapshot entirely (they must be skipped, not
              interned as fresh zero rows). *)
           let make snapshot =
             let pool =
               Uniswap.Pool.create ~pool_id:0
                 ~token0:(Chain.Token.make ~id:0 ~symbol:"TKA")
                 ~token1:(Chain.Token.make ~id:1 ~symbol:"TKB")
                 ~fee_pips:3000 ~tick_spacing:60 ~sqrt_price:Amm_math.Q96.q96
             in
             (pool, Processor.begin_epoch ~pool ~snapshot ~verify_signatures:false ())
           in
           let snapshot0 =
             { Tokenbank.Token_bank.snap_epoch = 0;
               snap_deposits = [ (alice, (one_e24, one_e24)); (bob, (one_e24, one_e24)) ];
               snap_pool_balances = [ (0, (U256.zero, U256.zero)) ]; snap_positions = [] }
           in
           let pool_a, a = make snapshot0 in
           let pool_b, b = make snapshot0 in
           let _ = seed_liquidity a in
           let _ = seed_liquidity b in
           apply_random_ops a ops1;
           apply_random_ops b ops1;
           let pa0 = Processor.build_payload a ~epoch:0 ~next_committee_vk:dummy_pk in
           let pb0 = Processor.build_payload_reference b ~epoch:0 ~next_committee_vk:dummy_pk in
           (* TokenBank lags: epoch 1 starts from the same unsynced
              deposit snapshot, and epoch 0's listed users ride along as
              carry on the incremental side — plus a user the next
              snapshot evicted (exited mid-lag) who has no row at all. *)
           let evicted = Address.of_label "evicted-mid-lag" in
           let user_carry =
             evicted
             :: List.map
                  (fun (u : Tokenbank.Sync_payload.user_entry) -> u.Tokenbank.Sync_payload.user)
                  pa0.Tokenbank.Sync_payload.users
           in
           let snapshot1 = { snapshot0 with Tokenbank.Token_bank.snap_epoch = 1 } in
           (* Epoch 0's positions ride along too: an epoch-1 trace that
              never touches them would otherwise drop them from the
              incremental payload while the full scan still reports them. *)
           let carry =
             List.map
               (fun (e : Tokenbank.Sync_payload.position_entry) -> e.Tokenbank.Sync_payload.pos_id)
               pa0.Tokenbank.Sync_payload.positions
           in
           let a1 =
             Processor.begin_epoch ~pool:pool_a ~snapshot:snapshot1 ~carry ~user_carry
               ~verify_signatures:false ()
           in
           let b1 =
             Processor.begin_epoch ~pool:pool_b ~snapshot:snapshot1 ~verify_signatures:false ()
           in
           (* Epoch 1 keeps only alice active: bob's carried entry (if
              epoch 0 listed him) diffs back to zero and must vanish. *)
           let round0 = 1 + List.length ops1 in
           let alice_only =
             List.map (fun (op, mag, _flag) -> (op, mag, true)) ops2
           in
           apply_random_ops ~round0 a1 alice_only;
           apply_random_ops ~round0 b1 alice_only;
           let pa1 = Processor.build_payload a1 ~epoch:1 ~next_committee_vk:dummy_pk in
           let pb1 = Processor.build_payload_reference b1 ~epoch:1 ~next_committee_vk:dummy_pk in
           (* The reference never sees the carry, so agreement also
              proves carried-but-idle users were filtered out. *)
           signing_bytes_agree pa0 pb0
           && signing_bytes_agree pa1 pb1
           && List.for_all
                (fun (u : Tokenbank.Sync_payload.user_entry) ->
                  not (Address.equal u.Tokenbank.Sync_payload.user evicted))
                pa1.Tokenbank.Sync_payload.users)) ]

let test_summary_positions_reported () =
  let p = fresh_processor () in
  let genesis = seed_liquidity p in
  ignore genesis;
  let mint =
    make_tx ~round:1
      (Tx.Mint
         { lower_tick = -600; upper_tick = 600; amount0_desired = one_e18;
           amount1_desired = one_e18; target = Tx.New_position })
  in
  (match Processor.process p ~current_round:1 mint with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let payload = Processor.build_payload p ~epoch:0 ~next_committee_vk:dummy_pk in
  (* Both the genesis position and the new one are fresh this epoch. *)
  Alcotest.(check int) "two position entries" 2
    (List.length payload.Tokenbank.Sync_payload.positions);
  List.iter
    (fun (e : Tokenbank.Sync_payload.position_entry) ->
      Alcotest.(check bool) "live entries" false e.Tokenbank.Sync_payload.deleted)
    payload.Tokenbank.Sync_payload.positions

let test_summary_reports_deletion () =
  let p = fresh_processor () in
  let _ = seed_liquidity p in
  let mint =
    make_tx ~round:1
      (Tx.Mint
         { lower_tick = -600; upper_tick = 600; amount0_desired = one_e18;
           amount1_desired = one_e18; target = Tx.New_position })
  in
  ignore (Processor.process p ~current_round:1 mint);
  let pid = Uniswap.Position.derive_id ~minter:alice ~tx_id:mint.Tx.id in
  let burn =
    make_tx ~round:2
      (Tx.Burn
         { burn_position = pid; amount0_requested = U256.max_value;
           amount1_requested = U256.max_value })
  in
  ignore (Processor.process p ~current_round:2 burn);
  let payload = Processor.build_payload p ~epoch:0 ~next_committee_vk:dummy_pk in
  (* A position minted and fully burned within one epoch never reaches
     TokenBank state; reporting it as deleted is harmless but it must not
     be reported as live. *)
  List.iter
    (fun (e : Tokenbank.Sync_payload.position_entry) ->
      if Position_id.equal e.Tokenbank.Sync_payload.pos_id pid then
        Alcotest.(check bool) "reported deleted" true e.Tokenbank.Sync_payload.deleted)
    payload.Tokenbank.Sync_payload.positions

(* ------------------------------------------------------------------ *)
(* Auditor (public verifiability)                                      *)
(* ------------------------------------------------------------------ *)

let build_epoch_with_metas () =
  (* A processor-run epoch with its meta-blocks, plus the pool clone an
     auditor would hold from the epoch start. *)
  let pool =
    Uniswap.Pool.create ~pool_id:0
      ~token0:(Chain.Token.make ~id:0 ~symbol:"TKA")
      ~token1:(Chain.Token.make ~id:1 ~symbol:"TKB")
      ~fee_pips:3000 ~tick_spacing:60 ~sqrt_price:Amm_math.Q96.q96
  in
  let snapshot =
    { Tokenbank.Token_bank.snap_epoch = 0;
      snap_deposits = [ (alice, (one_e24, one_e24)); (bob, (one_e24, one_e24)) ];
      snap_pool_balances = [ (0, (U256.zero, U256.zero)) ]; snap_positions = [] }
  in
  let pool_at_start = Uniswap.Pool.clone pool in
  let processor = Processor.begin_epoch ~pool ~snapshot ~verify_signatures:false () in
  let mk_round round txs =
    let included =
      List.filter
        (fun tx -> Processor.process processor ~current_round:round tx = Ok ())
        txs
    in
    (Blocks.make_meta ~epoch:0 ~round ~view_changes:0 included, included)
  in
  let genesis_mint =
    make_tx ~round:0
      (Tx.Mint
         { lower_tick = -887220; upper_tick = 887220; amount0_desired = one_e21;
           amount1_desired = one_e21; target = Tx.New_position })
  in
  (* Bind rounds sequentially: list literals evaluate right-to-left. *)
  let meta0 = mk_round 0 [ genesis_mint ] in
  let meta1 = mk_round 1 [ some_swap ~round:1; some_swap ~round:1 ] in
  let meta2 =
    mk_round 2
      [ Tx.create ~issuer:bob ~issuer_pk:dummy_pk ~pool:0 ~issued_round:2 ~issued_at:0.0
          (Tx.Swap
             { zero_for_one = false; kind = Tx.Exact_input; amount_specified = one_e18;
               amount_limit = U256.zero; sqrt_price_limit = U256.zero; deadline = 100 }) ]
  in
  let metas = [ meta0; meta1; meta2 ] in
  let payload = Processor.build_payload processor ~epoch:0 ~next_committee_vk:dummy_pk in
  (pool_at_start, snapshot, metas, payload)

let test_auditor_accepts_honest_summary () =
  let pool_at_start, snapshot, metas, payload = build_epoch_with_metas () in
  match Auditor.verify_summary ~pool_at_start ~snapshot ~metas ~payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_auditor_rejects_tampered_summary () =
  let pool_at_start, snapshot, metas, payload = build_epoch_with_metas () in
  let tampered =
    { payload with
      Tokenbank.Sync_payload.pool_balance0 =
        U256.add payload.Tokenbank.Sync_payload.pool_balance0 U256.one }
  in
  match Auditor.verify_summary ~pool_at_start ~snapshot ~metas ~payload:tampered with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tampered summary passed the audit"

let test_auditor_rejects_tampered_meta () =
  let pool_at_start, snapshot, metas, payload = build_epoch_with_metas () in
  (* Drop a meta-block: the replay no longer matches the summary. *)
  let truncated = [ List.hd metas ] in
  (match Auditor.verify_summary ~pool_at_start ~snapshot ~metas:truncated ~payload with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing meta-blocks passed the audit");
  (* Move the last block's transactions into the block before it: the
     replay runs the same transactions in the same order, but neither
     body rebuilds the root its block committed to. *)
  let shifted =
    match metas with
    | [ (m0, b0); (m1, b1); (m2, b2) ] -> [ (m0, b0); (m1, b1 @ b2); (m2, []) ]
    | _ -> Alcotest.fail "expected three meta-blocks"
  in
  match Auditor.verify_summary ~pool_at_start ~snapshot ~metas:shifted ~payload with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bodies that miss their roots passed the audit"

let test_auditor_replay_does_not_mutate_input_pool () =
  let pool_at_start, snapshot, metas, payload = build_epoch_with_metas () in
  let balance_before = Uniswap.Pool.balance0 pool_at_start in
  ignore (Auditor.verify_summary ~pool_at_start ~snapshot ~metas ~payload);
  Alcotest.check check_u256 "input pool untouched" balance_before
    (Uniswap.Pool.balance0 pool_at_start)

let () =
  Alcotest.run "sidechain"
    [ ( "deposits",
        [ Alcotest.test_case "main first" `Quick test_deposits_consume_main_first;
          Alcotest.test_case "atomic failure" `Quick test_deposits_atomic_failure;
          Alcotest.test_case "unknown user" `Quick test_deposits_unknown_user_empty;
          Alcotest.test_case "in place allocates nothing" `Quick
            test_deposits_in_place_allocation;
          users_sorted_prop ] );
      ( "codec",
        [ Alcotest.test_case "entry sizes" `Quick test_codec_entry_sizes;
          Alcotest.test_case "overflow guard" `Quick test_codec_overflow_guard ] );
      ( "blocks",
        [ Alcotest.test_case "prune epoch" `Quick test_blocks_prune_epoch;
          Alcotest.test_case "inclusion proofs" `Quick test_meta_block_inclusion_proofs;
          Alcotest.test_case "meta size" `Quick test_meta_block_size_accounts_txs ] );
      ( "processor",
        [ Alcotest.test_case "swap deposits" `Quick test_processor_swap_updates_deposits;
          Alcotest.test_case "deadline" `Quick test_processor_deadline;
          Alcotest.test_case "uncovered swap" `Quick test_processor_uncovered_swap_rejected;
          Alcotest.test_case "sidechain credit" `Quick test_processor_sidechain_credit_spendable;
          Alcotest.test_case "mint/burn/collect cycle" `Quick
            test_processor_mint_burn_collect_cycle;
          Alcotest.test_case "foreign burn" `Quick test_processor_burn_foreign_position_rejected;
          Alcotest.test_case "signature policy" `Quick test_processor_signature_policy ] );
      ( "auditor",
        [ Alcotest.test_case "accepts honest summary" `Quick test_auditor_accepts_honest_summary;
          Alcotest.test_case "rejects tampered summary" `Quick test_auditor_rejects_tampered_summary;
          Alcotest.test_case "rejects tampered metas" `Quick test_auditor_rejects_tampered_meta;
          Alcotest.test_case "replay is pure" `Quick test_auditor_replay_does_not_mutate_input_pool ] );
      ( "summary",
        [ Alcotest.test_case "conservation simple" `Quick test_summary_conservation_simple;
          Alcotest.test_case "positions reported" `Quick test_summary_positions_reported;
          Alcotest.test_case "deletion reported" `Quick test_summary_reports_deletion ]
        @ summary_props ) ]
