(* Priority queue, bounded-delay network, PBFT safety/liveness under
   faults, view change, committee election, and the latency model. *)

open Consensus

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:50 ~name gen f)

(* ------------------------------------------------------------------ *)
(* Priority queue                                                      *)
(* ------------------------------------------------------------------ *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.push q p v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  let pop () = match Pqueue.pop q with Some (_, v) -> v | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ];
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q)

let test_pqueue_stable_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 1.0 v) [ 1; 2; 3; 4 ];
  let order = ref [] in
  for _ = 1 to 4 do
    match Pqueue.pop q with Some (_, v) -> order := v :: !order | None -> ()
  done;
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4 ] (List.rev !order)

let pqueue_props =
  [ prop "pops are sorted" QCheck2.Gen.(list_size (int_range 0 60) (float_range 0.0 100.0))
      (fun priorities ->
        let q = Pqueue.create () in
        List.iteri (fun i p -> Pqueue.push q p i) priorities;
        let rec drain acc =
          match Pqueue.pop q with Some (p, _) -> drain (p :: acc) | None -> List.rev acc
        in
        let out = drain [] in
        out = List.sort compare priorities);
    (* Few distinct priorities and pushes interleaved with pops: every pop
       must return the least (priority, insertion index) still queued. *)
    prop "pops follow (priority, insertion index)"
      QCheck2.Gen.(list_size (int_range 0 80) (option (int_range 0 3)))
      (fun ops ->
        let q = Pqueue.create () in
        let stamp = ref 0 and model = ref [] in
        List.for_all
          (function
            | Some p ->
              let entry = (float_of_int p, !stamp) in
              Pqueue.push q (fst entry) (snd entry);
              incr stamp;
              model := List.sort compare (entry :: !model);
              true
            | None -> (
              match (Pqueue.pop q, !model) with
              | None, [] -> true
              | Some popped, expected :: rest ->
                model := rest;
                popped = expected
              | _ -> false))
          ops) ]

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

let test_network_delay_bound () =
  let rng = Amm_crypto.Rng.create "net" in
  let net = Network.create ~rng ~delta:0.5 () in
  for i = 0 to 99 do
    Network.send net ~at:10.0 ~src:0 ~dst:i "m"
  done;
  let rec drain () =
    match Network.next net with
    | Some (at, _, _) ->
      if at < 10.0 || at > 10.5 then Alcotest.failf "delivery at %.3f out of bound" at;
      drain ()
    | None -> ()
  in
  drain ()

let test_network_schedule_exact () =
  let rng = Amm_crypto.Rng.create "net2" in
  let net = Network.create ~rng ~delta:0.5 () in
  Network.schedule net ~at:42.0 ~dst:3 "timer";
  match Network.next net with
  | Some (at, dst, msg) ->
    Alcotest.(check (float 0.0)) "exact time" 42.0 at;
    Alcotest.(check int) "dst" 3 dst;
    Alcotest.(check string) "msg" "timer" msg
  | None -> Alcotest.fail "no event"

(* ------------------------------------------------------------------ *)
(* PBFT                                                                *)
(* ------------------------------------------------------------------ *)

let cfg_of behaviors =
  { Pbft.n = Array.length behaviors;
    f = (Array.length behaviors - 1) / 3;
    behaviors; delta = 0.1; timeout = 1.0; max_time = 120.0 }

let value = Bytes.of_string "meta-block-7"

let run_case name behaviors ~expect_decide ~expect_view_change =
  let rng = Amm_crypto.Rng.create ("pbft-" ^ name) in
  let cfg = cfg_of behaviors in
  let o = Pbft.run ~rng cfg ~value in
  Alcotest.(check bool) (name ^ ": agreement") true (Pbft.honest_agreement cfg o);
  Alcotest.(check bool) (name ^ ": all honest decide") expect_decide
    (Pbft.all_honest_decided cfg o);
  if expect_view_change then
    Alcotest.(check bool) (name ^ ": view changed") true (o.Pbft.total_view_changes > 0)
  else Alcotest.(check int) (name ^ ": no view change") 0 o.Pbft.total_view_changes

let test_pbft_happy () = run_case "happy" (Array.make 7 Pbft.Honest)
    ~expect_decide:true ~expect_view_change:false

let test_pbft_silent_leader () =
  let b = Array.make 7 Pbft.Honest in
  b.(0) <- Pbft.Silent;
  run_case "silent leader" b ~expect_decide:true ~expect_view_change:true

let test_pbft_invalid_leader () =
  let b = Array.make 7 Pbft.Honest in
  b.(0) <- Pbft.Propose_invalid;
  run_case "invalid leader" b ~expect_decide:true ~expect_view_change:true

let test_pbft_max_faulty_replicas () =
  let b = Array.make 7 Pbft.Honest in
  b.(2) <- Pbft.Silent;
  b.(5) <- Pbft.Silent;
  run_case "f silent replicas" b ~expect_decide:true ~expect_view_change:false

let test_pbft_two_bad_leaders_in_a_row () =
  let b = Array.make 10 Pbft.Honest in
  b.(0) <- Pbft.Silent;
  b.(1) <- Pbft.Propose_invalid;
  run_case "two bad leaders" b ~expect_decide:true ~expect_view_change:true

let test_pbft_larger_committee () =
  run_case "n=22" (Array.make 22 Pbft.Honest) ~expect_decide:true ~expect_view_change:false

let test_pbft_requires_quorum_size () =
  Alcotest.check_raises "n < 3f+1" (Invalid_argument "Pbft.run: need n >= 3f+1") (fun () ->
      let cfg =
        { Pbft.n = 4; f = 2; behaviors = Array.make 4 Pbft.Honest; delta = 0.1;
          timeout = 1.0; max_time = 10.0 }
      in
      ignore (Pbft.run ~rng:(Amm_crypto.Rng.create "x") cfg ~value))

let test_pbft_decision_time_bounded () =
  let rng = Amm_crypto.Rng.create "pbft-time" in
  let cfg = cfg_of (Array.make 7 Pbft.Honest) in
  let o = Pbft.run ~rng cfg ~value in
  Array.iter
    (function
      | Some (_, at) ->
        (* Three message rounds at delta = 0.1 finish well within a second. *)
        if at > 1.0 then Alcotest.failf "decision too slow: %.3f" at
      | None -> Alcotest.fail "undecided")
    o.Pbft.decisions

let test_pbft_exponential_backoff () =
  (* Three silent leaders in a row force three view changes. View-change
     timers double each view (capped), so views 0/1/2 expire after 1, 2
     and 4 timeout units: the view-3 leader cannot decide before t = 7.
     The old linear back-off (view + 1) would have allowed t ≈ 6. *)
  let b = Array.make 13 Pbft.Honest in
  b.(0) <- Pbft.Silent;
  b.(1) <- Pbft.Silent;
  b.(2) <- Pbft.Silent;
  let cfg = { (cfg_of b) with Pbft.delta = 0.01; max_time = 60.0 } in
  let o = Pbft.run ~rng:(Amm_crypto.Rng.create "pbft-backoff") cfg ~value in
  Alcotest.(check bool) "decided" true (Pbft.all_honest_decided cfg o);
  Alcotest.(check bool) "three view changes" true (o.Pbft.total_view_changes >= 3);
  Array.iteri
    (fun i d ->
      match d with
      | Some (_, at) ->
        if cfg.Pbft.behaviors.(i) = Pbft.Honest then begin
          if at < 6.9 then
            Alcotest.failf "replica %d decided at %.3f: back-off is not exponential" i at;
          if at > 8.0 then Alcotest.failf "replica %d decided too late: %.3f" i at
        end
      | None -> if cfg.Pbft.behaviors.(i) = Pbft.Honest then Alcotest.fail "undecided")
    o.Pbft.decisions

let test_pbft_backoff_cap () =
  (* The doubling is capped so a long outage cannot push timers past the
     horizon: 2^backoff_cap is the largest multiplier. *)
  Alcotest.(check bool) "cap is positive and small" true
    (Pbft.backoff_cap > 0 && Pbft.backoff_cap <= 10)

let pbft_props =
  [ prop "safety under random single fault" QCheck2.Gen.(pair (int_range 0 6) (int_range 0 1))
      (fun (faulty, kind) ->
        let b = Array.make 7 Pbft.Honest in
        b.(faulty) <- (if kind = 0 then Pbft.Silent else Pbft.Propose_invalid);
        let cfg = cfg_of b in
        let o = Pbft.run ~rng:(Amm_crypto.Rng.create "prop") cfg ~value in
        Pbft.honest_agreement cfg o && Pbft.all_honest_decided cfg o) ]

(* ------------------------------------------------------------------ *)
(* Election                                                            *)
(* ------------------------------------------------------------------ *)

let make_miners n =
  let rng = Amm_crypto.Rng.create "elect" in
  Array.init n (fun i ->
      let sk, pk = Amm_crypto.Bls.keygen rng in
      (Election.{ miner_id = i; stake = 1 + (i mod 7); pk }, sk))

let seed = Election.seed_for_epoch ~randomness:(Bytes.of_string "genesis") ~epoch:5

let test_election_verifiable () =
  let miners = make_miners 40 in
  let creds =
    Array.to_list (Array.map (fun (m, sk) -> Election.credential ~sk ~miner:m ~seed) miners)
  in
  Alcotest.(check bool) "all credentials verify" true
    (List.for_all
       (fun c -> Election.verify_credential ~miner:(fst miners.(c.Election.c_miner)) ~seed c)
       creds);
  (* A credential for a different seed is rejected. *)
  let other = Election.seed_for_epoch ~randomness:(Bytes.of_string "genesis") ~epoch:6 in
  Alcotest.(check bool) "wrong seed rejected" false
    (Election.verify_credential ~miner:(fst miners.(0)) ~seed:other (List.hd creds))

let test_election_deterministic () =
  let miners = make_miners 40 in
  let creds () =
    Array.to_list (Array.map (fun (m, sk) -> Election.credential ~sk ~miner:m ~seed) miners)
  in
  let c1, l1 = Election.elect ~credentials:(creds ()) ~committee_size:9 in
  let c2, l2 = Election.elect ~credentials:(creds ()) ~committee_size:9 in
  Alcotest.(check (list int)) "same committee" c1 c2;
  Alcotest.(check int) "same leader" l1 l2;
  Alcotest.(check int) "size" 9 (List.length c1)

let test_election_changes_with_epoch () =
  let miners = make_miners 40 in
  let creds s =
    Array.to_list (Array.map (fun (m, sk) -> Election.credential ~sk ~miner:m ~seed:s) miners)
  in
  let s2 = Election.seed_for_epoch ~randomness:(Bytes.of_string "genesis") ~epoch:6 in
  let c1, _ = Election.elect ~credentials:(creds seed) ~committee_size:9 in
  let c2, _ = Election.elect ~credentials:(creds s2) ~committee_size:9 in
  Alcotest.(check bool) "rotation" true (c1 <> c2)

let test_election_stake_weighting () =
  (* A miner with overwhelming stake should win the leadership for most
     epochs. *)
  let rng = Amm_crypto.Rng.create "whale" in
  let miners =
    Array.init 20 (fun i ->
        let sk, pk = Amm_crypto.Bls.keygen rng in
        (Election.{ miner_id = i; stake = (if i = 0 then 10_000 else 1); pk }, sk))
  in
  let wins = ref 0 in
  for epoch = 0 to 49 do
    let s = Election.seed_for_epoch ~randomness:(Bytes.of_string "w") ~epoch in
    let creds =
      Array.to_list
        (Array.map (fun (m, sk) -> Election.credential ~sk ~miner:m ~seed:s) miners)
    in
    let _, leader = Election.elect ~credentials:creds ~committee_size:5 in
    if leader = 0 then incr wins
  done;
  Alcotest.(check bool)
    (Printf.sprintf "whale leads most epochs (%d/50)" !wins)
    true (!wins > 40)

let test_election_not_enough () =
  Alcotest.check_raises "too few" (Invalid_argument "Election.elect: not enough credentials")
    (fun () -> ignore (Election.elect ~credentials:[] ~committee_size:1))

(* ------------------------------------------------------------------ *)
(* Latency model                                                       *)
(* ------------------------------------------------------------------ *)

(* The paper's testbed link: 1 Gbps with ~50 ms mean delay. The cases
   below time its 500-miner committees. *)
let testbed = { Latency_model.mean_delay = 0.05; bandwidth_bytes = 125_000_000.0 }

let test_latency_monotone_in_block_size () =
  let latency block_bytes =
    Latency_model.consensus_latency testbed ~committee_size:500 ~block_bytes
  in
  let l1 = latency 100_000 and l2 = latency 2_000_000 in
  Alcotest.(check bool) "bigger block slower" true (l2 > l1)

let test_latency_fits_paper_rounds () =
  (* 1 MB blocks must finish within the paper's 4-second rounds. *)
  Alcotest.(check bool) "1MB in 4s" true
    (Latency_model.fits_in_round testbed ~committee_size:500 ~block_bytes:1_000_000
       ~round_duration:4.0);
  Alcotest.(check bool) "2MB in 4s" true
    (Latency_model.fits_in_round testbed ~committee_size:500 ~block_bytes:2_000_000
       ~round_duration:4.0)

let test_latency_view_change_penalty () =
  let committee_size = 500 in
  Alcotest.(check bool) "view change adds timeout" true
    (Latency_model.view_change_latency testbed ~committee_size ~timeout:2.0
     > Latency_model.consensus_latency testbed ~committee_size ~block_bytes:1024 +. 1.9)

(* Cross-check the closed-form model against the message-level PBFT: the
   model's vote-round latency should be within ~3x of a simulated run for
   a small committee (it targets large gossip committees, so only the
   order of magnitude must agree). *)
let test_latency_crosscheck_with_pbft () =
  let rng = Amm_crypto.Rng.create "xcheck" in
  let n = 16 in
  let cfg =
    { Pbft.n; f = 5; behaviors = Array.make n Pbft.Honest; delta = 0.1; timeout = 5.0;
      max_time = 60.0 }
  in
  let o = Pbft.run ~rng cfg ~value in
  let sim_max =
    Array.fold_left
      (fun acc -> function Some (_, at) -> Float.max acc at | None -> acc)
      0.0 o.Pbft.decisions
  in
  let model =
    Latency_model.consensus_latency
      { Latency_model.mean_delay = 0.055; bandwidth_bytes = 1e9 }
      ~committee_size:n ~block_bytes:64
  in
  Alcotest.(check bool)
    (Printf.sprintf "model %.3f vs sim %.3f within 3x" model sim_max)
    true
    (model < 3.0 *. sim_max && sim_max < 3.0 *. model)

let () =
  Alcotest.run "consensus"
    [ ( "pqueue",
        [ Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "stable ties" `Quick test_pqueue_stable_ties ]
        @ pqueue_props );
      ( "network",
        [ Alcotest.test_case "delay bound" `Quick test_network_delay_bound;
          Alcotest.test_case "schedule exact" `Quick test_network_schedule_exact ] );
      ( "pbft",
        [ Alcotest.test_case "happy path" `Quick test_pbft_happy;
          Alcotest.test_case "silent leader" `Quick test_pbft_silent_leader;
          Alcotest.test_case "invalid leader" `Quick test_pbft_invalid_leader;
          Alcotest.test_case "f silent replicas" `Quick test_pbft_max_faulty_replicas;
          Alcotest.test_case "two bad leaders" `Quick test_pbft_two_bad_leaders_in_a_row;
          Alcotest.test_case "larger committee" `Quick test_pbft_larger_committee;
          Alcotest.test_case "quorum size check" `Quick test_pbft_requires_quorum_size;
          Alcotest.test_case "decision time" `Quick test_pbft_decision_time_bounded;
          Alcotest.test_case "exponential backoff" `Quick test_pbft_exponential_backoff;
          Alcotest.test_case "backoff cap" `Quick test_pbft_backoff_cap ]
        @ pbft_props );
      ( "election",
        [ Alcotest.test_case "verifiable" `Quick test_election_verifiable;
          Alcotest.test_case "deterministic" `Quick test_election_deterministic;
          Alcotest.test_case "rotation" `Quick test_election_changes_with_epoch;
          Alcotest.test_case "stake weighting" `Quick test_election_stake_weighting;
          Alcotest.test_case "not enough" `Quick test_election_not_enough ] );
      ( "latency_model",
        [ Alcotest.test_case "monotone" `Quick test_latency_monotone_in_block_size;
          Alcotest.test_case "fits paper rounds" `Quick test_latency_fits_paper_rounds;
          Alcotest.test_case "view change penalty" `Quick test_latency_view_change_penalty;
          Alcotest.test_case "cross-check vs pbft" `Quick test_latency_crosscheck_with_pbft ] ) ]
