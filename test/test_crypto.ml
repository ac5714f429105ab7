(* Hash test vectors, field laws, BLS and threshold signatures, VRF,
   Merkle trees, and the deterministic RNG. *)

open Amm_crypto
module U256 = Amm_math.U256

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~name gen f)
let gen_msg = QCheck2.Gen.(map Bytes.of_string (string_size (int_range 0 300)))

(* ------------------------------------------------------------------ *)
(* SHA-256 (FIPS 180-4 vectors)                                        *)
(* ------------------------------------------------------------------ *)

let test_sha256_vectors () =
  let cases =
    [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      (String.make 1000 'a',
       "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3") ]
  in
  List.iter (fun (input, expect) -> Alcotest.(check string) input expect (Sha256.hex input)) cases

let test_sha256_block_boundaries () =
  (* Lengths that straddle the 64-byte block and padding boundaries. *)
  List.iter
    (fun n ->
      let d = Sha256.digest (Bytes.make n 'x') in
      Alcotest.(check int) (Printf.sprintf "len %d" n) 32 (Bytes.length d))
    [ 54; 55; 56; 63; 64; 65; 119; 120; 128 ]

(* ------------------------------------------------------------------ *)
(* Keccak-256 (Ethereum vectors)                                       *)
(* ------------------------------------------------------------------ *)

let test_keccak_vectors () =
  let cases =
    [ ("", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
      ("abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
      ("hello", "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8");
      ("testing", "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02") ]
  in
  List.iter (fun (input, expect) -> Alcotest.(check string) input expect (Keccak256.hex input)) cases

let test_keccak_rate_boundaries () =
  (* The 136-byte rate boundary and multiples. *)
  List.iter
    (fun n ->
      let d = Keccak256.digest (Bytes.make n 'k') in
      Alcotest.(check int) (Printf.sprintf "len %d" n) 32 (Bytes.length d))
    [ 135; 136; 137; 271; 272; 273 ]

let hash_props =
  [ prop "sha256 deterministic" gen_msg (fun m ->
        Bytes.equal (Sha256.digest m) (Sha256.digest m));
    prop "keccak deterministic" gen_msg (fun m ->
        Bytes.equal (Keccak256.digest m) (Keccak256.digest m));
    prop "sha256 avalanche" gen_msg (fun m ->
        let m' = Bytes.cat m (Bytes.of_string "x") in
        not (Bytes.equal (Sha256.digest m) (Sha256.digest m'))) ]

(* Streaming digests must equal the one-shot digest of the concatenation,
   at any chunk boundary — including mid-block and block-aligned splits. *)
let gen_long_msg =
  QCheck2.Gen.(map Bytes.of_string (string_size (int_range 0 400)))

let streaming_props =
  let split_prop name init feed finalize digest =
    prop name
      QCheck2.Gen.(pair gen_long_msg (int_range 0 400))
      (fun (m, cut) ->
        let cut = Stdlib.min cut (Bytes.length m) in
        let ctx = init () in
        feed ctx (Bytes.sub m 0 cut);
        feed ctx (Bytes.sub m cut (Bytes.length m - cut));
        Bytes.equal (finalize ctx) (digest m))
  in
  [ split_prop "sha256 streaming = one-shot" Sha256.init Sha256.feed
      Sha256.finalize Sha256.digest;
    split_prop "keccak streaming = one-shot" Keccak256.init Keccak256.feed
      Keccak256.finalize Keccak256.digest;
    prop "sha256 concat = digest of concatenation"
      QCheck2.Gen.(list_size (int_range 0 5) gen_msg)
      (fun parts ->
        Bytes.equal (Sha256.concat parts)
          (Sha256.digest (Bytes.concat Bytes.empty parts)));
    prop "streaming context reusable across messages"
      (QCheck2.Gen.pair gen_long_msg gen_long_msg)
      (fun (m1, m2) ->
        let ctx = Keccak256.init () in
        Keccak256.feed ctx m1;
        let d1 = Keccak256.finalize ctx in
        Keccak256.feed ctx m2;
        let d2 = Keccak256.finalize ctx in
        Bytes.equal d1 (Keccak256.digest m1)
        && Bytes.equal d2 (Keccak256.digest m2)) ]

(* ------------------------------------------------------------------ *)
(* Field                                                               *)
(* ------------------------------------------------------------------ *)

let gen_field =
  QCheck2.Gen.(map (fun s -> Field.of_bytes (Bytes.of_string s)) (string_size (return 16)))

let field_props =
  [ prop "field inverse" gen_field (fun a ->
        Field.is_zero a || Field.equal Field.one (Field.mul a (Field.inv a)));
    prop "field add inverse" gen_field (fun a ->
        Field.is_zero (Field.add a (Field.neg a)));
    prop "field distributivity" (QCheck2.Gen.triple gen_field gen_field gen_field)
      (fun (a, b, c) ->
        Field.equal (Field.mul a (Field.add b c))
          (Field.add (Field.mul a b) (Field.mul a c))) ]

let test_field_pow () =
  let a = Field.of_int 7 in
  Alcotest.(check bool) "a^(p-1) = 1 (Fermat)" true
    (Field.equal Field.one (Field.pow a (U256.sub Field.order U256.one)))

(* The Montgomery/extended-GCD fast paths against their naive reference
   implementations (generic-division multiply, Fermat inversion). *)
let gen_exp = QCheck2.Gen.map U256.of_int (QCheck2.Gen.int_range 0 max_int)

let fast_vs_naive_props =
  [ prop "mul = mul_naive" (QCheck2.Gen.pair gen_field gen_field) (fun (a, b) ->
        Field.equal (Field.mul a b) (Field.mul_naive a b));
    prop "inv = inv_naive" gen_field (fun a ->
        Field.is_zero a || Field.equal (Field.inv a) (Field.inv_naive a));
    prop "inv is a multiplicative inverse" gen_field (fun a ->
        Field.is_zero a || Field.equal Field.one (Field.mul a (Field.inv a)));
    prop "pow = pow_naive" (QCheck2.Gen.pair gen_field gen_exp) (fun (a, e) ->
        Field.equal (Field.pow a e) (Field.pow_naive a e));
    prop "batch_inv = map inv"
      QCheck2.Gen.(array_size (int_range 1 12) gen_field)
      (fun xs ->
        let xs = Array.map (fun a -> if Field.is_zero a then Field.one else a) xs in
        let batched = Field.batch_inv xs in
        Array.for_all2 Field.equal batched (Array.map Field.inv xs)) ]

let test_field_inv_edges () =
  let pm1 = Field.of_u256 (U256.sub Field.order U256.one) in
  Alcotest.(check bool) "inv one" true (Field.equal Field.one (Field.inv Field.one));
  (* −1 is its own inverse. *)
  Alcotest.(check bool) "inv (order-1)" true (Field.equal pm1 (Field.inv pm1));
  Alcotest.(check bool) "inv matches naive at order-1" true
    (Field.equal (Field.inv pm1) (Field.inv_naive pm1));
  Alcotest.check_raises "inv zero raises" Division_by_zero (fun () ->
      ignore (Field.inv Field.zero));
  Alcotest.check_raises "batch_inv with zero raises" Division_by_zero (fun () ->
      ignore (Field.batch_inv [| Field.one; Field.zero |]))

(* ------------------------------------------------------------------ *)
(* BLS and threshold signatures                                        *)
(* ------------------------------------------------------------------ *)

let rng () = Rng.create "crypto-tests"

let test_bls_sign_verify () =
  let r = rng () in
  let sk, pk = Bls.keygen r in
  let msg = Bytes.of_string "epoch 7 summary" in
  let s = Bls.sign sk msg in
  Alcotest.(check bool) "valid" true (Bls.verify pk msg s);
  Alcotest.(check bool) "wrong message" false (Bls.verify pk (Bytes.of_string "other") s);
  let _, pk2 = Bls.keygen r in
  Alcotest.(check bool) "wrong key" false (Bls.verify pk2 msg s)

let test_bls_sizes () =
  let sk, pk = Bls.keygen (rng ()) in
  Alcotest.(check int) "sig 64B" 64
    (Bytes.length (Bls.signature_to_bytes (Bls.sign sk (Bytes.of_string "m"))));
  Alcotest.(check int) "vk 128B" 128 (Bytes.length (Bls.public_key_to_bytes pk))

let test_bls_aggregate () =
  let r = rng () in
  let msg = Bytes.of_string "m" in
  let keys = List.init 5 (fun _ -> Bls.keygen r) in
  let sigs = List.map (fun (sk, _) -> Bls.sign sk msg) keys in
  let agg_sig = Bls.aggregate sigs in
  (* Aggregate verifies under the aggregated public key in the ideal
     group: sum of keys = key of summed secrets. *)
  let agg_pk =
    List.fold_left (fun acc (_, pk) -> Group.g2_add acc pk) Group.g2_zero keys
  in
  Alcotest.(check bool) "aggregate verifies" true (Bls.verify agg_pk msg agg_sig)

let test_threshold_basic () =
  let vk, _, shares = Bls.dkg (rng ()) ~n:10 ~threshold:7 in
  let msg = Bytes.of_string "sync payload" in
  let partials = List.map (fun s -> Bls.partial_sign s msg) shares in
  (match Bls.combine ~threshold:7 partials with
  | Some s -> Alcotest.(check bool) "full set verifies" true (Bls.verify vk msg s)
  | None -> Alcotest.fail "combine failed");
  (* Any 7-subset works. *)
  let subset = List.filteri (fun i _ -> i mod 3 <> 1) partials in
  (match Bls.combine ~threshold:7 subset with
  | Some s -> Alcotest.(check bool) "subset verifies" true (Bls.verify vk msg s)
  | None -> Alcotest.fail "subset combine failed")

let test_threshold_too_few () =
  let _, _, shares = Bls.dkg (rng ()) ~n:10 ~threshold:7 in
  let msg = Bytes.of_string "m" in
  let partials = List.filteri (fun i _ -> i < 6) (List.map (fun s -> Bls.partial_sign s msg) shares) in
  Alcotest.(check bool) "6 < 7 rejected" true (Bls.combine ~threshold:7 partials = None)

let test_threshold_duplicates_dont_count () =
  let _, _, shares = Bls.dkg (rng ()) ~n:10 ~threshold:4 in
  let msg = Bytes.of_string "m" in
  let p = Bls.partial_sign (List.hd shares) msg in
  Alcotest.(check bool) "duplicates rejected" true
    (Bls.combine ~threshold:4 [ p; p; p; p ] = None)

let test_threshold_wrong_subset_signature_rejected () =
  let vk, _, shares = Bls.dkg (rng ()) ~n:7 ~threshold:5 in
  let msg = Bytes.of_string "m" in
  let other = Bytes.of_string "forged" in
  let partials = List.map (fun s -> Bls.partial_sign s other) shares in
  match Bls.combine ~threshold:5 partials with
  | Some s -> Alcotest.(check bool) "signature on other message" false (Bls.verify vk msg s)
  | None -> Alcotest.fail "combine failed"

let threshold_subset_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"any t-subset combines, smaller never"
       QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 9))
       (fun (salt, drop) ->
         let r = Rng.create (Printf.sprintf "subset-%d" salt) in
         let n = 9 and threshold = 5 in
         let vk, _, shares = Bls.dkg r ~n ~threshold in
         let msg = Bytes.of_string (string_of_int salt) in
         let partials = List.map (fun s -> Bls.partial_sign s msg) shares in
         (* Remove up to [drop] distinct shares. *)
         let kept = List.filteri (fun i _ -> i >= drop) partials in
         match Bls.combine ~threshold kept with
         | Some sigma -> List.length kept >= threshold && Bls.verify vk msg sigma
         | None -> List.length kept < threshold))

let test_threshold_withheld_any_subset () =
  (* Degraded-quorum signing: when members withhold shares, any [t]
     *distinct* survivors reconstruct — including non-contiguous index
     sets — and every such subset yields the identical group signature
     (Lagrange interpolation is unique in the exponent). *)
  let n = 10 and threshold = 7 in
  let vk, _, shares = Bls.dkg (rng ()) ~n ~threshold in
  let msg = Bytes.of_string "degraded quorum" in
  let partials = Array.of_list (List.map (fun s -> Bls.partial_sign s msg) shares) in
  let pick idxs = List.map (fun i -> partials.(i)) idxs in
  let subsets = [ [ 0; 1; 2; 3; 4; 5; 6 ]; [ 3; 4; 5; 6; 7; 8; 9 ];
                  [ 0; 2; 4; 5; 6; 8; 9 ]; [ 9; 7; 5; 3; 1; 0; 2 ] ] in
  let sigs =
    List.map
      (fun idxs ->
        match Bls.combine ~threshold (pick idxs) with
        | Some s ->
          Alcotest.(check bool) "subset verifies" true (Bls.verify vk msg s);
          s
        | None -> Alcotest.fail "t distinct shares must combine")
      subsets
  in
  let first = Bls.signature_to_bytes (List.hd sigs) in
  List.iter
    (fun s ->
      Alcotest.(check bool) "all subsets give the same signature" true
        (Bytes.equal first (Bls.signature_to_bytes s)))
    (List.tl sigs)

let test_threshold_withheld_below_quorum () =
  (* One withholder too many: t - 1 distinct shares fail, and padding the
     survivor set with duplicated partials must not sneak past the
     distinctness check. *)
  let n = 10 and threshold = 7 in
  let _, _, shares = Bls.dkg (rng ()) ~n ~threshold in
  let msg = Bytes.of_string "withheld" in
  let partials = List.map (fun s -> Bls.partial_sign s msg) shares in
  let survivors = List.filteri (fun i _ -> i mod 3 <> 0) partials in
  Alcotest.(check int) "six survivors" 6 (List.length survivors);
  Alcotest.(check bool) "t-1 distinct rejected" true
    (Bls.combine ~threshold survivors = None);
  let padded = List.hd survivors :: List.hd survivors :: survivors in
  Alcotest.(check bool) "duplicates don't restore quorum" true
    (Bls.combine ~threshold padded = None)

let test_threshold_share_indices () =
  let n = 6 and threshold = 4 in
  let _, _, shares = Bls.dkg (rng ()) ~n ~threshold in
  let msg = Bytes.of_string "indices" in
  List.iter
    (fun s ->
      Alcotest.(check int) "partial carries its share's index"
        (Bls.share_index s)
        (Bls.partial_index (Bls.partial_sign s msg)))
    shares;
  let idxs = List.sort_uniq compare (List.map Bls.share_index shares) in
  Alcotest.(check int) "indices distinct" n (List.length idxs)

let test_dkg_bad_threshold () =
  Alcotest.check_raises "threshold > n" (Invalid_argument "Bls.dkg: bad threshold")
    (fun () -> ignore (Bls.dkg (rng ()) ~n:3 ~threshold:4))

(* Cached/batch-inverted combine against the pre-optimisation reference,
   across random signer subsets and thresholds. Running the same subset
   twice also exercises the λ-cache hit path. *)
let combine_vs_reference_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"combine = combine_reference"
       QCheck2.Gen.(triple (int_range 0 1000) (int_range 1 8) (int_range 0 9))
       (fun (salt, threshold, drop) ->
         let r = Rng.create (Printf.sprintf "combine-ref-%d" salt) in
         let n = 9 in
         let threshold = Stdlib.min threshold n in
         let _, _, shares = Bls.dkg r ~n ~threshold in
         let msg = Bytes.of_string (Printf.sprintf "ref-%d" salt) in
         let partials = List.map (fun s -> Bls.partial_sign s msg) shares in
         let kept = List.filteri (fun i _ -> i >= drop) partials in
         let fast = Bls.combine ~threshold kept in
         let fast2 = Bls.combine ~threshold kept in
         let slow = Bls.combine_reference ~threshold kept in
         match (fast, fast2, slow) with
         | Some a, Some a', Some b ->
           Bytes.equal (Bls.signature_to_bytes a) (Bls.signature_to_bytes b)
           && Bytes.equal (Bls.signature_to_bytes a) (Bls.signature_to_bytes a')
         | None, None, None -> List.length kept < threshold
         | _ -> false))

let test_verify_partial () =
  let n = 10 and threshold = 7 in
  let _, commitments, shares = Bls.dkg (rng ()) ~n ~threshold in
  let msg = Bytes.of_string "partial check" in
  let partials = List.map (fun s -> Bls.partial_sign s msg) shares in
  List.iter
    (fun p ->
      Alcotest.(check bool) "honest partial accepted" true
        (Bls.verify_partial ~commitments msg p))
    partials;
  List.iter
    (fun p ->
      Alcotest.(check bool) "tampered partial rejected" false
        (Bls.verify_partial ~commitments msg (Bls.tamper_partial p)))
    partials;
  (* A partial on a different message fails against this message. *)
  let other = Bls.partial_sign (List.hd shares) (Bytes.of_string "other") in
  Alcotest.(check bool) "wrong-message partial rejected" false
    (Bls.verify_partial ~commitments msg other)

let test_combine_rejects_tampered () =
  (* End-to-end: filter partials through verify_partial, then combine the
     survivors — the tampered share neither blocks nor corrupts signing. *)
  let n = 10 and threshold = 7 in
  let vk, commitments, shares = Bls.dkg (rng ()) ~n ~threshold in
  let msg = Bytes.of_string "filter then combine" in
  let partials =
    List.mapi
      (fun i s ->
        let p = Bls.partial_sign s msg in
        if i < 2 then Bls.tamper_partial p else p)
      shares
  in
  let honest = List.filter (Bls.verify_partial ~commitments msg) partials in
  Alcotest.(check int) "two tampered partials caught" (n - 2) (List.length honest);
  match Bls.combine ~threshold honest with
  | Some s -> Alcotest.(check bool) "survivors sign" true (Bls.verify vk msg s)
  | None -> Alcotest.fail "honest quorum must combine"

let test_member_key_vk () =
  (* The commitments' constant term is the committee verification key:
     member_key at x = 0 recovers vk. *)
  let vk, commitments, _ = Bls.dkg (rng ()) ~n:6 ~threshold:4 in
  Alcotest.(check bool) "member_key 0 = vk" true
    (Group.g2_equal (Bls.member_key commitments 0) vk)

let hash_to_g1_cache_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"hash_to_g1 = uncached" gen_msg
       (fun m ->
         Group.g1_equal (Group.hash_to_g1 m) (Group.hash_to_g1_uncached m)
         (* hit path: the second call reads the memo *)
         && Group.g1_equal (Group.hash_to_g1 m) (Group.hash_to_g1_uncached m)))

(* ------------------------------------------------------------------ *)
(* VRF                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vrf_roundtrip () =
  let sk, pk = Bls.keygen (rng ()) in
  let input = Bytes.of_string "election seed" in
  let out, proof = Vrf.evaluate sk input in
  Alcotest.(check bool) "verifies" true (Vrf.verify pk input proof = Some out);
  Alcotest.(check bool) "wrong input" true (Vrf.verify pk (Bytes.of_string "x") proof = None)

let test_vrf_deterministic () =
  let sk, _ = Bls.keygen (rng ()) in
  let input = Bytes.of_string "seed" in
  let o1, _ = Vrf.evaluate sk input in
  let o2, _ = Vrf.evaluate sk input in
  Alcotest.(check bool) "same output" true (Bytes.equal o1 o2)

(* ------------------------------------------------------------------ *)
(* Merkle                                                              *)
(* ------------------------------------------------------------------ *)

let leaves n = List.init n (fun i -> Bytes.of_string (Printf.sprintf "leaf-%d" i))

let test_merkle_all_proofs () =
  List.iter
    (fun n ->
      let l = leaves n in
      let t = Merkle.of_leaves l in
      List.iteri
        (fun i leaf ->
          match Merkle.prove t i with
          | Some p ->
            Alcotest.(check bool)
              (Printf.sprintf "n=%d i=%d" n i)
              true
              (Merkle.verify ~root:(Merkle.root t) ~leaf p)
          | None -> Alcotest.failf "no proof for %d/%d" i n)
        l)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 33 ]

let test_merkle_bad_proof () =
  let t = Merkle.of_leaves (leaves 8) in
  match Merkle.prove t 3 with
  | Some p ->
    Alcotest.(check bool) "wrong leaf fails" false
      (Merkle.verify ~root:(Merkle.root t) ~leaf:(Bytes.of_string "leaf-4") p)
  | None -> Alcotest.fail "no proof"

let test_merkle_empty_and_range () =
  let t = Merkle.of_leaves [] in
  Alcotest.(check bool) "empty root" true (Bytes.equal (Merkle.root t) Merkle.empty_root);
  let t8 = Merkle.of_leaves (leaves 8) in
  Alcotest.(check bool) "out of range" true (Merkle.prove t8 8 = None);
  Alcotest.(check bool) "negative" true (Merkle.prove t8 (-1) = None)

let test_merkle_proof_length () =
  let t = Merkle.of_leaves (leaves 16) in
  match Merkle.prove t 5 with
  | Some p -> Alcotest.(check int) "log2 16" 4 (Merkle.proof_length p)
  | None -> Alcotest.fail "no proof"

(* ------------------------------------------------------------------ *)
(* RNG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create "seed" and b = Rng.create "seed" in
  for _ = 1 to 10 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let parent = Rng.create "seed" in
  let c1 = Rng.split parent "a" and c2 = Rng.split parent "b" in
  let s1 = List.init 8 (fun _ -> Rng.int c1 1_000_000) in
  let s2 = List.init 8 (fun _ -> Rng.int c2 1_000_000) in
  Alcotest.(check bool) "different streams" true (s1 <> s2)

let test_rng_bounds () =
  let r = Rng.create "bounds" in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of bounds: %d" v;
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of bounds: %f" f
  done;
  Alcotest.check_raises "nonpositive bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_shuffle_permutes () =
  let r = Rng.create "shuffle" in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Against the oracle: [Ref_sha256] is the earlier byte-at-a-time      *)
(* SHA-256, and the model below is the Rng stream as rng.mli defines   *)
(* it, computed with that oracle.                                      *)
(* ------------------------------------------------------------------ *)

module R = Ref_sha256

let check_bytes what expect got =
  if not (Bytes.equal expect got) then
    Alcotest.failf "%s: expected %s, got %s" what (Hex.of_bytes expect) (Hex.of_bytes got)

(* Not periodic in 64: every block of a long message differs. *)
let pattern n = Bytes.init n (fun i -> Char.chr (((i * 131) + (i lsr 6) + (n * 7)) land 0xFF))

let test_sha256_oracle_lengths () =
  let ctx = Sha256.init () in
  for n = 0 to 2000 do
    let m = pattern n in
    let expect = R.digest m in
    let what name = Printf.sprintf "%s, length %d" name n in
    check_bytes (what "digest") expect (Sha256.digest m);
    let cut = n / 3 in
    check_bytes (what "concat") expect
      (Sha256.concat [ Bytes.sub m 0 cut; Bytes.empty; Bytes.sub m cut (n - cut) ]);
    let step = (n mod 67) + 1 in
    let pos = ref 0 in
    while !pos < n do
      let take = Stdlib.min step (n - !pos) in
      Sha256.feed ctx (Bytes.sub m !pos take);
      pos := !pos + take
    done;
    check_bytes (what "streamed") expect (Sha256.finalize ctx)
  done

(* A message and the sizes of its chunks, every size from 0 to 130. *)
let gen_chunked =
  QCheck2.Gen.(
    pair (string_size (int_range 0 700)) (list_size (int_range 0 40) (int_range 0 130)))

let chunks_of (m, sizes) =
  let n = String.length m in
  let rec go pos = function
    | [] -> [ String.sub m pos (n - pos) ]
    | k :: rest ->
      let k = Stdlib.min k (n - pos) in
      String.sub m pos k :: go (pos + k) rest
  in
  List.map Bytes.of_string (go 0 sizes)

let sha256_oracle_props =
  [ prop "oracle chunkings" gen_chunked (fun ((m, _) as input) ->
        let parts = chunks_of input in
        let expect = R.digest (Bytes.of_string m) in
        let ctx = Sha256.init () in
        List.iter (Sha256.feed ctx) parts;
        Bytes.equal (Sha256.finalize ctx) expect
        && Bytes.equal (Sha256.concat parts) expect) ]

(* [feed_sub] hashes exactly its range, wherever the range starts. *)
let feed_sub_props =
  [ prop "feed_sub = feed of the range"
      QCheck2.Gen.(triple (string_size (int_range 0 300)) (int_range 0 300) (int_range 0 300))
      (fun (m, a, b) ->
        let m = Bytes.of_string m and n = String.length m in
        let off = Stdlib.min a n in
        let len = Stdlib.min b (n - off) in
        let cut = len / 2 in
        let ctx = Sha256.init () in
        Sha256.feed_sub ctx m off cut;
        Sha256.feed_sub ctx m (off + cut) (len - cut);
        Bytes.equal (Sha256.finalize ctx) (R.digest (Bytes.sub m off len))) ]

let le64 n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  b

(* The first 7 bytes of a block, big-endian. *)
let bits56 blk =
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Char.code (Bytes.get blk i)
  done;
  !v

(* Counters from 2^32 up set message word 9, which no run reaches. *)
let test_sha256_counter_blocks () =
  let seeds = [ Bytes.make 32 '\000'; Bytes.make 32 '\xff'; R.digest_string "seed" ] in
  List.iter
    (fun seed ->
      let m = Sha256.midstate seed in
      List.iter
        (fun n ->
          let expect = R.concat [ seed; le64 n ] in
          let what = Printf.sprintf "counter %d" n in
          let out = Bytes.make 40 '\xaa' in
          Sha256.counter_into m n out 5;
          check_bytes what expect (Bytes.sub out 5 32);
          check_bytes (what ^ " leaves the rest") (Bytes.make 8 '\xaa')
            (Bytes.cat (Bytes.sub out 0 5) (Bytes.sub out 37 3));
          Alcotest.(check int) (what ^ " first 56 bits") (bits56 expect)
            (Sha256.counter_56 m n))
        [ 0; 1; 2; 255; 256; 0xFFFF; 1 lsl 24; (1 lsl 32) - 1; 1 lsl 32;
          (1 lsl 32) + 1; 1 lsl 40; (1 lsl 56) + 3; max_int ])
    seeds;
  Alcotest.check_raises "short seed"
    (Invalid_argument "Sha256.midstate: seed must be 32 bytes")
    (fun () -> ignore (Sha256.midstate (Bytes.make 31 'x')));
  let m = Sha256.midstate (Bytes.make 32 'x') in
  List.iter
    (fun (len, off) ->
      Alcotest.check_raises (Printf.sprintf "%d bytes at %d" len off)
        (Invalid_argument "Sha256.counter_into: no 32 bytes at offset")
        (fun () -> Sha256.counter_into m 0 (Bytes.create len) off))
    [ (31, 0); (40, 9); (40, -1) ]

(* The stream's definition, on the oracle. *)
type model = { mseed : bytes; mutable mctr : int }

let m_create s = { mseed = R.digest_string s; mctr = 0 }
let m_split m label = { mseed = R.concat [ m.mseed; Bytes.of_string ("/" ^ label) ]; mctr = 0 }

let m_block m =
  let blk = R.concat [ m.mseed; le64 m.mctr ] in
  m.mctr <- m.mctr + 1;
  blk

let m_int m n = bits56 (m_block m) mod n
let m_float m = float_of_int (bits56 (m_block m) land ((1 lsl 53) - 1)) /. float_of_int (1 lsl 53)

let m_bytes m n =
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    Buffer.add_bytes buf (m_block m)
  done;
  Bytes.sub (Buffer.to_bytes buf) 0 n

let m_u256 m = U256.of_bytes_be (m_block m)

let m_shuffle m arr =
  for i = Array.length arr - 1 downto 1 do
    let j = m_int m (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let oracle_seeds = [ ""; "seed"; "golden"; "ammboost-faulty-durable" ]
let bounds = [| 1; 2; 3; 7; 10; 1000; 1_000_003; 1 lsl 30; (1 lsl 56) - 1; 1 lsl 56; max_int |]

(* The first 1 000 draws of each entry point on a fresh generator. *)
let test_rng_oracle_draws () =
  List.iter
    (fun seed ->
      let fresh () = (Rng.create seed, m_create seed) in
      let what name i = Printf.sprintf "%S %s draw %d" seed name i in
      let r, m = fresh () in
      for i = 0 to 999 do
        let n = bounds.(i mod Array.length bounds) in
        Alcotest.(check int) (what "int" i) (m_int m n) (Rng.int r n)
      done;
      let r, m = fresh () in
      for i = 0 to 999 do
        Alcotest.(check (float 0.0)) (what "float" i) (m_float m) (Rng.float r)
      done;
      let r, m = fresh () in
      for i = 0 to 999 do
        Alcotest.(check bool) (what "bool" i) (m_int m 2 = 1) (Rng.bool r)
      done;
      let r, m = fresh () in
      let arr = Array.init 13 (fun i -> i * i) in
      for i = 0 to 999 do
        Alcotest.(check int) (what "pick" i) arr.(m_int m 13) (Rng.pick r arr)
      done;
      let r, m = fresh () in
      for i = 0 to 249 do
        let a = Array.init 5 Fun.id and b = Array.init 5 Fun.id in
        m_shuffle m a;
        Rng.shuffle r b;
        Alcotest.(check (array int)) (what "shuffle" i) a b
      done;
      let r, m = fresh () in
      for i = 0 to 999 do
        let n = i mod 71 in
        check_bytes (what "bytes" i) (m_bytes m n) (Rng.bytes r n)
      done;
      let r, m = fresh () in
      for i = 0 to 999 do
        Alcotest.(check string) (what "u256" i)
          (U256.to_hex (m_u256 m)) (U256.to_hex (Rng.u256 r))
      done;
      let r, m = fresh () in
      for i = 0 to 999 do
        Alcotest.(check bool) (what "field" i) true
          (Field.equal (Field.of_u256 (m_u256 m)) (Rng.field r))
      done)
    oracle_seeds

let label_of_length n = String.init n (fun i -> Char.chr (33 + (((i * 7) + n) mod 94)))

let test_rng_oracle_split () =
  let r = Rng.create "splits" and m = m_create "splits" in
  for n = 0 to 60 do
    let label = label_of_length n in
    let what name = Printf.sprintf "label of %d bytes, %s" n name in
    let rc = Rng.split r label and mc = m_split m label in
    Alcotest.(check int) (what "int") (m_int mc (1 lsl 56)) (Rng.int rc (1 lsl 56));
    check_bytes (what "bytes") (m_bytes mc 40) (Rng.bytes rc 40);
    let rg = Rng.split rc "/" and mg = m_split mc "/" in
    Alcotest.(check (float 0.0)) (what "nested split") (m_float mg) (Rng.float rg);
    (* Splitting leaves the parent's counter alone. *)
    Alcotest.(check int) (what "parent") (m_int m 1_000_003) (Rng.int r 1_000_003)
  done

(* Recorded from the byte-at-a-time implementation. *)
let test_rng_golden () =
  let r = Rng.create "golden" in
  Alcotest.(check int) "int 2^56" 71359378078801704 (Rng.int r (1 lsl 56));
  Alcotest.(check int) "int 1e9+7" 354120868 (Rng.int r 1_000_000_007);
  Alcotest.(check (float 0.0)) "float" 0x1.7790159b8f255p-1 (Rng.float r);
  Alcotest.(check string) "bytes 40"
    "a16f075a0bca7ed9ba3fee3ed5d356b31e53e0db50051bb9dd005c34ddb992267385acf5818ee214"
    (Hex.of_bytes (Rng.bytes r 40));
  Alcotest.(check string) "u256"
    "73399607588102062652615599182882603231259665137616892709561468009052820787067"
    (U256.to_string (Rng.u256 r));
  let c = Rng.split (Rng.create "golden") "child" in
  Alcotest.(check int) "split int 2^56" 30020073178005138 (Rng.int c (1 lsl 56));
  Alcotest.(check (float 0.0)) "split float" 0x1.79abf5184186cp-3 (Rng.float c);
  Alcotest.(check string) "split bytes 32"
    "3156bf77f67fc57e9c32503cb5800981cb9701c1fa8cb94e1756af8681e6720c"
    (Hex.of_bytes (Rng.bytes c 32))

(* ------------------------------------------------------------------ *)
(* Keccak-256 against its oracle: [Ref_keccak256] is the earlier       *)
(* implementation over an [int64 array] state.                         *)
(* ------------------------------------------------------------------ *)

module RK = Ref_keccak256

(* Every length from 0 to 600 crosses the 136-byte rate boundary four
   times (135/136/137, 271/272 among them). *)
let test_keccak_oracle_lengths () =
  let ctx = Keccak256.init () in
  for n = 0 to 600 do
    let m = pattern n in
    let expect = RK.digest m in
    let what name = Printf.sprintf "%s, length %d" name n in
    check_bytes (what "digest") expect (Keccak256.digest m);
    check_bytes (what "digest_string") expect (Keccak256.digest_string (Bytes.to_string m));
    let step = (n mod 137) + 1 in
    let pos = ref 0 in
    while !pos < n do
      let take = Stdlib.min step (n - !pos) in
      Keccak256.feed ctx (Bytes.sub m !pos take);
      pos := !pos + take
    done;
    check_bytes (what "streamed") expect (Keccak256.finalize ctx)
  done

let keccak_oracle_props =
  [ prop "oracle chunkings" gen_chunked (fun ((m, _) as input) ->
        let ctx = Keccak256.init () in
        List.iter (Keccak256.feed ctx) (chunks_of input);
        Bytes.equal (Keccak256.finalize ctx) (RK.digest (Bytes.of_string m))) ]

(* Minor-heap words of one call, after a warm-up call has created the
   domain-local context. *)
let words_of_call f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_keccak_allocation () =
  let result = words_of_call (fun () -> Bytes.create 32) in
  List.iter
    (fun n ->
      let m = pattern n in
      Alcotest.(check (float 0.))
        (Printf.sprintf "digest of %d B allocates only its result" n)
        result
        (words_of_call (fun () -> Keccak256.digest m)))
    [ 64; 1024 ]

let () =
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries;
          Alcotest.test_case "oracle lengths 0-2000" `Quick test_sha256_oracle_lengths ]
        @ sha256_oracle_props
        @ [ Alcotest.test_case "counter blocks" `Quick test_sha256_counter_blocks ]
        @ feed_sub_props );
      ( "keccak256",
        [ Alcotest.test_case "vectors" `Quick test_keccak_vectors;
          Alcotest.test_case "rate boundaries" `Quick test_keccak_rate_boundaries ]
        @ hash_props @ streaming_props
        @ [ Alcotest.test_case "oracle lengths 0-600" `Quick test_keccak_oracle_lengths ]
        @ keccak_oracle_props
        @ [ Alcotest.test_case "allocates only its result" `Quick test_keccak_allocation ] );
      ( "field",
        [ Alcotest.test_case "fermat" `Quick test_field_pow;
          Alcotest.test_case "inversion edges" `Quick test_field_inv_edges ]
        @ field_props @ fast_vs_naive_props );
      ( "bls",
        [ Alcotest.test_case "sign/verify" `Quick test_bls_sign_verify;
          Alcotest.test_case "sizes" `Quick test_bls_sizes;
          Alcotest.test_case "aggregate" `Quick test_bls_aggregate;
          Alcotest.test_case "threshold basic" `Quick test_threshold_basic;
          Alcotest.test_case "threshold too few" `Quick test_threshold_too_few;
          Alcotest.test_case "threshold duplicates" `Quick test_threshold_duplicates_dont_count;
          Alcotest.test_case "threshold wrong message" `Quick
            test_threshold_wrong_subset_signature_rejected;
          Alcotest.test_case "threshold withheld any subset" `Quick
            test_threshold_withheld_any_subset;
          Alcotest.test_case "threshold withheld below quorum" `Quick
            test_threshold_withheld_below_quorum;
          Alcotest.test_case "threshold share indices" `Quick test_threshold_share_indices;
          Alcotest.test_case "dkg bad threshold" `Quick test_dkg_bad_threshold;
          Alcotest.test_case "verify partial" `Quick test_verify_partial;
          Alcotest.test_case "combine rejects tampered" `Quick
            test_combine_rejects_tampered;
          Alcotest.test_case "member key at zero" `Quick test_member_key_vk;
          threshold_subset_prop; combine_vs_reference_prop;
          hash_to_g1_cache_prop ] );
      ( "vrf",
        [ Alcotest.test_case "roundtrip" `Quick test_vrf_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_vrf_deterministic ] );
      ( "merkle",
        [ Alcotest.test_case "all proofs verify" `Quick test_merkle_all_proofs;
          Alcotest.test_case "bad proof" `Quick test_merkle_bad_proof;
          Alcotest.test_case "empty and range" `Quick test_merkle_empty_and_range;
          Alcotest.test_case "proof length" `Quick test_merkle_proof_length ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "oracle draws" `Quick test_rng_oracle_draws;
          Alcotest.test_case "oracle split labels 0-60" `Quick test_rng_oracle_split;
          Alcotest.test_case "golden values" `Quick test_rng_golden ] ) ]
