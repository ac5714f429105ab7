(* Tokens, addresses, ids, transactions, wire encodings, the generic
   ledger and the mempool. *)

module U256 = Amm_math.U256
open Chain

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~name gen f)

(* ------------------------------------------------------------------ *)
(* Tokens and addresses                                                *)
(* ------------------------------------------------------------------ *)

let test_token () =
  let a = Token.make ~id:0 ~symbol:"TKA" in
  let a' = Token.make ~id:0 ~symbol:"other" in
  let b = Token.make ~id:1 ~symbol:"TKB" in
  Alcotest.(check bool) "identity by id" true (Token.equal a a');
  Alcotest.(check bool) "distinct" false (Token.equal a b);
  Alcotest.(check string) "symbol" "TKA" (Token.symbol a)

let test_address_derivation () =
  let rng = Amm_crypto.Rng.create "addr" in
  let _, pk = Amm_crypto.Bls.keygen rng in
  let a = Address.of_public_key pk in
  Alcotest.(check int) "20 bytes" 20 (Bytes.length (Address.to_bytes a));
  Alcotest.(check bool) "deterministic" true (Address.equal a (Address.of_public_key pk));
  let b = Address.of_label "TokenBank" in
  Alcotest.(check bool) "label deterministic" true
    (Address.equal b (Address.of_label "TokenBank"));
  Alcotest.(check bool) "distinct labels" false
    (Address.equal b (Address.of_label "Other"));
  Alcotest.(check bool) "hex prefix" true
    (String.length (Address.to_hex a) = 42 && String.sub (Address.to_hex a) 0 2 = "0x")

let test_address_bad_length () =
  Alcotest.check_raises "19 bytes" (Invalid_argument "Address.of_bytes: need 20 bytes")
    (fun () -> ignore (Address.of_bytes (Bytes.make 19 'x')))

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

let user () =
  let rng = Amm_crypto.Rng.create "tx-user" in
  let sk, pk = Amm_crypto.Bls.keygen rng in
  (sk, pk, Address.of_public_key pk)

let sample_swap ?sign () =
  let sk, pk, addr = user () in
  let sign = if sign = Some true then Some sk else None in
  Tx.create ?sign ~issuer:addr ~issuer_pk:pk ~pool:0 ~issued_round:5 ~issued_at:20.0
    (Tx.Swap
       { zero_for_one = true; kind = Tx.Exact_input;
         amount_specified = U256.of_int 1000; amount_limit = U256.zero;
         sqrt_price_limit = U256.zero; deadline = 100 })

let test_tx_wire_sizes () =
  (* The Ethereum-encoded wire sizes must match the Table 8 model. *)
  let _, pk, addr = user () in
  let mk payload =
    (Tx.create ~issuer:addr ~issuer_pk:pk ~pool:0 ~issued_round:0 ~issued_at:0.0 payload)
      .Tx.wire_size
  in
  let pid = Ids.Position_id.of_hash (Amm_crypto.Sha256.digest_string "p") in
  Alcotest.(check int) "swap" (Encoding.ethereum_op_size Encoding.Op_swap)
    (mk (Tx.Swap
           { zero_for_one = false; kind = Tx.Exact_output;
             amount_specified = U256.one; amount_limit = U256.one;
             sqrt_price_limit = U256.zero; deadline = 1 }));
  Alcotest.(check int) "mint" (Encoding.ethereum_op_size Encoding.Op_mint)
    (mk (Tx.Mint
           { lower_tick = -60; upper_tick = 60; amount0_desired = U256.one;
             amount1_desired = U256.one; target = Tx.New_position }));
  Alcotest.(check int) "burn" (Encoding.ethereum_op_size Encoding.Op_burn)
    (mk (Tx.Burn { burn_position = pid; amount0_requested = U256.one;
                   amount1_requested = U256.one }));
  Alcotest.(check int) "collect" (Encoding.ethereum_op_size Encoding.Op_collect)
    (mk (Tx.Collect { collect_position = pid; fees0_requested = U256.one;
                      fees1_requested = U256.one }))

(* [wire_size] comes from the closed-form size model; the genuinely
   serialized wire ([Tx.wire], i.e. [Encoding.transaction_wire]) is the
   oracle it must agree with, op by op. *)
let test_tx_wire_size_matches_wire () =
  let _, pk, addr = user () in
  let pid = Ids.Position_id.of_hash (Amm_crypto.Sha256.digest_string "p") in
  List.iter
    (fun payload ->
      let tx =
        Tx.create ~issuer:addr ~issuer_pk:pk ~pool:3 ~issued_round:7 ~issued_at:0.0 payload
      in
      Alcotest.(check int) (Tx.type_name payload)
        (Bytes.length (Tx.wire tx)) tx.Tx.wire_size)
    [ Tx.Swap
        { zero_for_one = true; kind = Tx.Exact_input; amount_specified = U256.max_value;
          amount_limit = U256.zero; sqrt_price_limit = U256.one; deadline = 1 };
      Tx.Mint
        { lower_tick = -887220; upper_tick = 887220; amount0_desired = U256.one;
          amount1_desired = U256.max_value; target = Tx.Existing_position pid };
      Tx.Burn { burn_position = pid; amount0_requested = U256.zero;
                amount1_requested = U256.max_value };
      Tx.Collect { collect_position = pid; fees0_requested = U256.max_value;
                   fees1_requested = U256.zero } ]

let test_tx_table8_sizes () =
  (* Concrete Table 8 values. *)
  Alcotest.(check int) "swap 1008" 1008 (Encoding.ethereum_op_size Encoding.Op_swap);
  Alcotest.(check int) "mint 814" 814 (Encoding.ethereum_op_size Encoding.Op_mint);
  Alcotest.(check int) "burn 907" 907 (Encoding.ethereum_op_size Encoding.Op_burn);
  Alcotest.(check int) "collect 922" 922 (Encoding.ethereum_op_size Encoding.Op_collect)

let test_tx_sepolia_sizes () =
  Alcotest.(check int) "swap" 365 (Encoding.sepolia_op_size Encoding.Op_swap);
  Alcotest.(check int) "mint" 566 (Encoding.sepolia_op_size Encoding.Op_mint);
  Alcotest.(check int) "burn" 280 (Encoding.sepolia_op_size Encoding.Op_burn);
  Alcotest.(check int) "collect" 150 (Encoding.sepolia_op_size Encoding.Op_collect)

let test_tx_signature () =
  let signed = sample_swap ~sign:true () in
  Alcotest.(check bool) "valid signature" true (Tx.verify_signature signed);
  let unsigned = sample_swap () in
  Alcotest.(check bool) "unsigned fails" false (Tx.verify_signature unsigned)

let test_tx_id_depends_on_round () =
  let _, pk, addr = user () in
  let payload =
    Tx.Swap
      { zero_for_one = true; kind = Tx.Exact_input; amount_specified = U256.one;
        amount_limit = U256.zero; sqrt_price_limit = U256.zero; deadline = 9 }
  in
  let t1 = Tx.create ~issuer:addr ~issuer_pk:pk ~pool:0 ~issued_round:1 ~issued_at:0.0 payload in
  let t2 = Tx.create ~issuer:addr ~issuer_pk:pk ~pool:0 ~issued_round:2 ~issued_at:0.0 payload in
  Alcotest.(check bool) "distinct ids" false (Ids.Tx_id.equal t1.Tx.id t2.Tx.id)

(* [Tx.create] streams its field words through a scratch buffer, and
   [Tx.wire] reads the same writer. No fingerprint reads a tx id, so the
   word-list construction they replaced is kept here as their oracle. *)
let ref_tick_word tick =
  if tick >= 0 then Encoding.int_word tick
  else Encoding.word (U256.sub U256.zero (U256.of_int (-tick)))

let ref_fields_of ~issuer ~pool payload =
  let addr = Encoding.address_word issuer in
  let pool_w = Encoding.int_word pool in
  match payload with
  | Tx.Swap s ->
    let flags = (if s.zero_for_one then 1 else 0) lor (match s.kind with Tx.Exact_input -> 0 | Tx.Exact_output -> 2) in
    [ addr; pool_w; Encoding.int_word flags; Encoding.word s.amount_specified;
      Encoding.word s.amount_limit; Encoding.word s.sqrt_price_limit;
      Encoding.int_word s.deadline ]
  | Tx.Mint m ->
    let target_w =
      match m.target with
      | Tx.New_position -> Encoding.int_word 0
      | Tx.Existing_position pid -> Encoding.bytes32_word (Ids.Position_id.to_bytes pid)
    in
    [ addr; pool_w; ref_tick_word m.lower_tick; ref_tick_word m.upper_tick;
      Encoding.word m.amount0_desired; Encoding.word m.amount1_desired; target_w ]
  | Tx.Burn b ->
    [ addr; pool_w; Encoding.bytes32_word (Ids.Position_id.to_bytes b.burn_position);
      Encoding.word b.amount0_requested; Encoding.word b.amount1_requested ]
  | Tx.Collect c ->
    [ addr; pool_w; Encoding.bytes32_word (Ids.Position_id.to_bytes c.collect_position);
      Encoding.word c.fees0_requested; Encoding.word c.fees1_requested ]

let gen_tx_u256 =
  QCheck2.Gen.(oneof [ return U256.zero; return U256.max_value; map U256.of_int nat ])

let gen_position_id =
  QCheck2.Gen.map
    (fun i -> Ids.Position_id.of_hash (Amm_crypto.Sha256.digest_string (string_of_int i)))
    QCheck2.Gen.nat

let gen_tx_payload =
  let open QCheck2.Gen in
  oneof
    [ (let+ zero_for_one = bool and+ exact_in = bool and+ amount_specified = gen_tx_u256
       and+ amount_limit = gen_tx_u256 and+ sqrt_price_limit = gen_tx_u256
       and+ deadline = nat in
       Tx.Swap
         { zero_for_one; kind = (if exact_in then Tx.Exact_input else Tx.Exact_output);
           amount_specified; amount_limit; sqrt_price_limit; deadline });
      (let+ lower_tick = int_range (-887272) 887272 and+ width = int_range 1 1000
       and+ amount0_desired = gen_tx_u256 and+ amount1_desired = gen_tx_u256
       and+ target = option gen_position_id in
       Tx.Mint
         { lower_tick; upper_tick = lower_tick + width; amount0_desired; amount1_desired;
           target =
             (match target with
             | None -> Tx.New_position
             | Some pid -> Tx.Existing_position pid) });
      (let+ burn_position = gen_position_id and+ amount0_requested = gen_tx_u256
       and+ amount1_requested = gen_tx_u256 in
       Tx.Burn { burn_position; amount0_requested; amount1_requested });
      (let+ collect_position = gen_position_id and+ fees0_requested = gen_tx_u256
       and+ fees1_requested = gen_tx_u256 in
       Tx.Collect { collect_position; fees0_requested; fees1_requested }) ]

let tx_stream_props =
  let _, pk, _ = user () in
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"tx id and wire = word-list construction"
         QCheck2.Gen.(quad (int_range 0 99) (int_range 0 3) nat gen_tx_payload)
         (fun (who, pool, round, payload) ->
           let issuer = Address.of_label (string_of_int who) in
           let tx =
             Tx.create ~issuer ~issuer_pk:pk ~pool ~issued_round:round ~issued_at:0.0 payload
           in
           let fields = ref_fields_of ~issuer ~pool payload in
           let op = Tx.op_of_payload payload in
           Bytes.equal (Ids.Tx_id.to_bytes tx.Tx.id)
             (Amm_crypto.Sha256.digest
                (Bytes.concat Bytes.empty (fields @ [ Encoding.int_word round ])))
           && Bytes.equal (Tx.wire tx)
                (Encoding.transaction_wire ~op ~fields
                   ~padding:(Encoding.universal_router_padding op)))) ]

let test_word_encodings () =
  Alcotest.(check int) "word size" 32 (Bytes.length (Encoding.word U256.one));
  let addr = Address.of_label "x" in
  let w = Encoding.address_word addr in
  Alcotest.(check int) "padded" 32 (Bytes.length w);
  Alcotest.(check char) "left padding" '\000' (Bytes.get w 0)

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)
(* ------------------------------------------------------------------ *)

type blk = { h : int; sz : int }

let mk_ledger () =
  Ledger.create ~genesis:{ h = 0; sz = 100 } ~size:(fun b -> b.sz) ~k_depth:2

let test_ledger_append_confirm () =
  let l = mk_ledger () in
  for i = 1 to 5 do
    Ledger.append l { h = i; sz = 10 }
  done;
  Alcotest.(check int) "height" 5 (Ledger.height l);
  Alcotest.(check int) "confirmed" 3 (Ledger.confirmed_height l);
  Alcotest.(check bool) "3 confirmed" true (Ledger.is_confirmed l 3);
  Alcotest.(check bool) "4 not confirmed" false (Ledger.is_confirmed l 4);
  Alcotest.(check int) "bytes" 150 (Ledger.cumulative_bytes l)

let test_ledger_rollback () =
  let l = mk_ledger () in
  for i = 1 to 5 do
    Ledger.append l { h = i; sz = 10 }
  done;
  let dropped = Ledger.rollback l 2 in
  Alcotest.(check int) "dropped" 2 (List.length dropped);
  Alcotest.(check int) "height after" 3 (Ledger.height l);
  Alcotest.(check int) "bytes after" 130 (Ledger.cumulative_bytes l);
  Alcotest.(check bool) "tip is 3" true ((Ledger.tip l).h = 3)

let test_ledger_prune () =
  let l = mk_ledger () in
  for i = 1 to 6 do
    Ledger.append l { h = i; sz = 10 }
  done;
  let reclaimed = Ledger.prune l ~keep:(fun b -> b.h mod 2 = 0) in
  (* Blocks 1, 3, 5 are dropped (the tip, block 6, is even anyway). *)
  Alcotest.(check int) "reclaimed odd blocks" 30 reclaimed;
  Alcotest.(check int) "stored" (160 - 30) (Ledger.stored_bytes l);
  Alcotest.(check int) "cumulative unchanged" 160 (Ledger.cumulative_bytes l);
  Alcotest.(check bool) "pruned height is None" true (Ledger.nth l 3 = None);
  Alcotest.(check bool) "kept height" true (Ledger.nth l 4 <> None)

let test_ledger_prune_keeps_tip () =
  let l = mk_ledger () in
  Ledger.append l { h = 1; sz = 10 };
  let _ = Ledger.prune l ~keep:(fun _ -> false) in
  Alcotest.(check bool) "tip intact" true ((Ledger.tip l).h = 1)

let ledger_props =
  [ prop "rollback preserves the untouched prefix"
      QCheck2.Gen.(pair (int_range 1 30) (int_range 0 29))
      (fun (n, k) ->
        let k = Stdlib.min k (n - 1) in
        let l = mk_ledger () in
        for i = 1 to n do
          Ledger.append l { h = i; sz = i }
        done;
        let _ = Ledger.rollback l k in
        Ledger.height l = n - k
        && (match Ledger.nth l (n - k) with Some b -> b.h = n - k | None -> false)
        && Ledger.cumulative_bytes l = 100 + (((n - k) * (n - k + 1)) / 2)) ]

(* ------------------------------------------------------------------ *)
(* Mempool                                                             *)
(* ------------------------------------------------------------------ *)

let mp () = Mempool.create ~size:(fun (_, sz) -> sz)

let test_mempool_fifo_capacity () =
  let m = mp () in
  List.iter (fun x -> Mempool.push m x) [ (1, 40); (2, 40); (3, 40); (4, 40) ];
  Alcotest.(check int) "bytes" 160 (Mempool.byte_size m);
  let taken = Mempool.take_up_to m ~max_bytes:100 in
  Alcotest.(check (list int)) "fifo prefix" [ 1; 2 ] (List.map fst taken);
  Alcotest.(check int) "remaining" 2 (Mempool.length m)

let test_mempool_oversized_tx () =
  let m = mp () in
  Mempool.push m (1, 500);
  Mempool.push m (2, 10);
  (* An oversized head is delivered alone instead of wedging the queue. *)
  let taken = Mempool.take_up_to m ~max_bytes:100 in
  Alcotest.(check (list int)) "oversize alone" [ 1 ] (List.map fst taken);
  Alcotest.(check (list int)) "next fits" [ 2 ]
    (List.map fst (Mempool.take_up_to m ~max_bytes:100))

let test_mempool_drop_if () =
  let m = mp () in
  List.iter (fun x -> Mempool.push m x) [ (1, 10); (2, 10); (3, 10) ];
  let dropped = Mempool.drop_if m (fun (i, _) -> i = 2) in
  Alcotest.(check int) "dropped" 1 dropped;
  Alcotest.(check int) "bytes updated" 20 (Mempool.byte_size m);
  Alcotest.(check (list int)) "order preserved" [ 1; 3 ]
    (List.map fst (Mempool.peek_all m))

let mempool_props =
  [ prop "take never exceeds capacity (multi-tx case)"
      QCheck2.Gen.(list_size (int_range 0 30) (int_range 1 50))
      (fun sizes ->
        let m = mp () in
        List.iteri (fun i sz -> Mempool.push m (i, sz)) sizes;
        let taken = Mempool.take_up_to m ~max_bytes:60 in
        let total = List.fold_left (fun acc (_, sz) -> acc + sz) 0 taken in
        total <= 60 || List.length taken = 1) ]

(* Registries hash an address or id itself; the value must be the one
   they got from hashing a copy, so buckets and outputs stay put. *)
let key_hash_props =
  let gen n = QCheck2.Gen.bytes_size (QCheck2.Gen.return n) in
  [ prop "Address.hash = hash of to_bytes" (gen 20) (fun b ->
        let a = Chain.Address.of_bytes b in
        Chain.Address.hash a = Hashtbl.hash (Chain.Address.to_bytes a));
    prop "Ids hash = hash of to_bytes" (gen 32) (fun b ->
        let p = Chain.Ids.Position_id.of_hash b and t = Chain.Ids.Tx_id.of_hash b in
        Chain.Ids.Position_id.hash p = Hashtbl.hash (Chain.Ids.Position_id.to_bytes p)
        && Chain.Ids.Tx_id.hash t = Hashtbl.hash (Chain.Ids.Tx_id.to_bytes t)) ]

let () =
  Alcotest.run "chain"
    [ ( "token/address",
        [ Alcotest.test_case "token" `Quick test_token;
          Alcotest.test_case "address derivation" `Quick test_address_derivation;
          Alcotest.test_case "address bad length" `Quick test_address_bad_length ]
        @ key_hash_props );
      ( "tx/encoding",
        [ Alcotest.test_case "wire sizes" `Quick test_tx_wire_sizes;
          Alcotest.test_case "table 8 sizes" `Quick test_tx_table8_sizes;
          Alcotest.test_case "sepolia sizes" `Quick test_tx_sepolia_sizes;
          Alcotest.test_case "signature" `Quick test_tx_signature;
          Alcotest.test_case "id freshness" `Quick test_tx_id_depends_on_round;
          Alcotest.test_case "word encodings" `Quick test_word_encodings;
          Alcotest.test_case "wire size = encoded wire" `Quick test_tx_wire_size_matches_wire ]
        @ tx_stream_props );
      ( "ledger",
        [ Alcotest.test_case "append/confirm" `Quick test_ledger_append_confirm;
          Alcotest.test_case "rollback" `Quick test_ledger_rollback;
          Alcotest.test_case "prune" `Quick test_ledger_prune;
          Alcotest.test_case "prune keeps tip" `Quick test_ledger_prune_keeps_tip ]
        @ ledger_props );
      ( "mempool",
        [ Alcotest.test_case "fifo capacity" `Quick test_mempool_fifo_capacity;
          Alcotest.test_case "oversized" `Quick test_mempool_oversized_tx;
          Alcotest.test_case "drop_if" `Quick test_mempool_drop_if ]
        @ mempool_props ) ]
