(* The concentrated-liquidity pool: swaps, tick crossing, fee accounting,
   mint/burn/collect — plus randomized invariant checks
   (constant product never shrinks, tick-table consistency, LP
   no-free-lunch). *)

module U256 = Amm_math.U256
module Q96 = Amm_math.Q96
module Swap_math = Amm_math.Swap_math
open Uniswap

let u = U256.of_string
let check_u256 = Alcotest.testable U256.pp U256.equal
let addr = Chain.Address.of_label
let pid s = Chain.Ids.Position_id.of_hash (Amm_crypto.Sha256.digest_string s)
let one_e18 = u "1000000000000000000"
let one_e21 = u "1000000000000000000000"
let one_e24 = u "1000000000000000000000000"

let fresh_pool ?(fee = 3000) ?(spacing = 60) () =
  Pool.create ~pool_id:0
    ~token0:(Chain.Token.make ~id:0 ~symbol:"TKA")
    ~token1:(Chain.Token.make ~id:1 ~symbol:"TKB")
    ~fee_pips:fee ~tick_spacing:spacing ~sqrt_price:Q96.q96

let seeded_pool ?fee ?spacing () =
  let pool = fresh_pool ?fee ?spacing () in
  match
    Router.mint pool ~position_id:(pid "genesis") ~owner:(addr "genesis")
      ~lower_tick:(-887220) ~upper_tick:887220 ~amount0_desired:one_e24
      ~amount1_desired:one_e24
  with
  | Ok _ -> pool
  | Error e -> failwith e

let k_of pool = U256.to_float (Pool.balance0 pool) *. U256.to_float (Pool.balance1 pool)

(* ------------------------------------------------------------------ *)
(* Tick table                                                          *)
(* ------------------------------------------------------------------ *)

let test_tick_update_flip () =
  let table = Tick.create ~tick_spacing:60 in
  let flipped =
    Tick.update table ~tick:120 ~current_tick:0 ~fee_growth_global0:U256.zero
      ~fee_growth_global1:U256.zero
      ~liquidity_delta:(Amm_math.Liquidity_math.Add one_e18) ~upper:false
  in
  Alcotest.(check bool) "flips on init" true flipped;
  Alcotest.(check bool) "initialized" true (Tick.is_initialized table 120);
  let flipped2 =
    Tick.update table ~tick:120 ~current_tick:0 ~fee_growth_global0:U256.zero
      ~fee_growth_global1:U256.zero
      ~liquidity_delta:(Amm_math.Liquidity_math.Add one_e18) ~upper:false
  in
  Alcotest.(check bool) "no flip on second add" false flipped2;
  let flipped3 =
    Tick.update table ~tick:120 ~current_tick:0 ~fee_growth_global0:U256.zero
      ~fee_growth_global1:U256.zero
      ~liquidity_delta:(Amm_math.Liquidity_math.Remove (U256.mul one_e18 U256.two))
      ~upper:false
  in
  Alcotest.(check bool) "flips on full removal" true flipped3

let test_tick_spacing_enforced () =
  let table = Tick.create ~tick_spacing:60 in
  Alcotest.check_raises "off spacing" (Invalid_argument "Tick.update: tick not on spacing")
    (fun () ->
      ignore
        (Tick.update table ~tick:61 ~current_tick:0 ~fee_growth_global0:U256.zero
           ~fee_growth_global1:U256.zero
           ~liquidity_delta:(Amm_math.Liquidity_math.Add U256.one) ~upper:false))

let test_tick_next_initialized () =
  let table = Tick.create ~tick_spacing:60 in
  List.iter
    (fun tick ->
      ignore
        (Tick.update table ~tick ~current_tick:0 ~fee_growth_global0:U256.zero
           ~fee_growth_global1:U256.zero
           ~liquidity_delta:(Amm_math.Liquidity_math.Add one_e18) ~upper:false))
    [ -600; -60; 120; 600 ];
  Alcotest.(check (option int)) "lte from 0" (Some (-60))
    (Tick.next_initialized table ~from_tick:0 ~lte:true);
  Alcotest.(check (option int)) "gt from 0" (Some 120)
    (Tick.next_initialized table ~from_tick:0 ~lte:false);
  Alcotest.(check (option int)) "lte at initialized" (Some 120)
    (Tick.next_initialized table ~from_tick:120 ~lte:true);
  Alcotest.(check (option int)) "gt from top" None
    (Tick.next_initialized table ~from_tick:600 ~lte:false)

(* ------------------------------------------------------------------ *)
(* Swaps                                                               *)
(* ------------------------------------------------------------------ *)

let test_swap_exact_input_output_relation () =
  let pool = seeded_pool () in
  match
    Router.exact_input pool ~zero_for_one:true ~amount_in:one_e18
      ~min_amount_out:U256.zero ()
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.check check_u256 "full input consumed" one_e18 o.Router.spent;
    Alcotest.(check bool) "output below input at par (fee)" true
      (U256.lt o.Router.received one_e18);
    (* 0.3% fee: output ≈ 99.7% of input minus slippage. *)
    let ratio = U256.to_float o.Router.received /. 1e18 in
    Alcotest.(check bool) (Printf.sprintf "ratio %.6f" ratio) true
      (ratio > 0.9955 && ratio < 0.9975)

let test_swap_price_moves_correct_direction () =
  let pool = seeded_pool () in
  let p0 = Pool.sqrt_price pool in
  ignore (Router.exact_input pool ~zero_for_one:true ~amount_in:one_e21 ~min_amount_out:U256.zero ());
  let p1 = Pool.sqrt_price pool in
  Alcotest.(check bool) "selling token0 lowers price" true (U256.lt p1 p0);
  ignore (Router.exact_input pool ~zero_for_one:false ~amount_in:one_e21 ~min_amount_out:U256.zero ());
  Alcotest.(check bool) "selling token1 raises price" true (U256.gt (Pool.sqrt_price pool) p1)

let test_swap_k_never_decreases () =
  let pool = seeded_pool () in
  let k0 = k_of pool in
  for i = 1 to 50 do
    let direction = i mod 2 = 0 in
    ignore
      (Router.exact_input pool ~zero_for_one:direction
         ~amount_in:(U256.mul one_e18 (U256.of_int i)) ~min_amount_out:U256.zero ())
  done;
  Alcotest.(check bool) "k grew with fees" true (k_of pool > k0)

let test_swap_exact_output () =
  let pool = seeded_pool () in
  let want = u "5000000000000000000" in
  match
    Router.exact_output pool ~zero_for_one:false ~amount_out:want
      ~max_amount_in:(U256.mul want (U256.of_int 2)) ()
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.check check_u256 "exact output" want o.Router.received;
    Alcotest.(check bool) "input above output (fee+slippage)" true (U256.gt o.Router.spent want)

let test_swap_slippage_guards () =
  let pool = seeded_pool () in
  (match
     Router.exact_input pool ~zero_for_one:true ~amount_in:one_e18
       ~min_amount_out:one_e18 () (* impossible: fee eats some *)
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "min_amount_out not enforced");
  match
    Router.exact_output pool ~zero_for_one:true ~amount_out:one_e18
      ~max_amount_in:(u "990000000000000000") ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "max_amount_in not enforced"

let test_swap_price_limit_partial_fill_rejected () =
  let pool = seeded_pool () in
  (* A price limit one tick away cannot absorb a massive exact-in swap;
     the router rejects the partial fill. *)
  let limit = Amm_math.Tick_math.get_sqrt_ratio_at_tick (-10) in
  match
    Router.exact_input pool ~zero_for_one:true ~amount_in:(U256.mul one_e24 U256.two)
      ~min_amount_out:U256.zero ~sqrt_price_limit:limit ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "partial fill should be rejected for exact input"

let test_swap_zero_amount_rejected () =
  let pool = seeded_pool () in
  match Router.exact_input pool ~zero_for_one:true ~amount_in:U256.zero ~min_amount_out:U256.zero () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero amount accepted"

let test_swap_empty_pool_rejected () =
  let pool = fresh_pool () in
  match Router.exact_input pool ~zero_for_one:true ~amount_in:one_e18 ~min_amount_out:U256.zero () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "swap against empty pool accepted"

let test_swap_crosses_ticks () =
  let pool = seeded_pool () in
  (* Narrow in-range position: a big swap must cross its boundary. *)
  (match
     Router.mint pool ~position_id:(pid "narrow") ~owner:(addr "lp") ~lower_tick:(-120)
       ~upper_tick:120 ~amount0_desired:one_e21 ~amount1_desired:one_e21
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let liquidity_before = Pool.liquidity pool in
  match
    Router.exact_input pool ~zero_for_one:true ~amount_in:(U256.mul one_e21 (U256.of_int 20))
      ~min_amount_out:U256.zero ()
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check bool) "crossed at least one tick" true (o.Router.ticks_crossed >= 1);
    Alcotest.(check bool) "liquidity dropped out of range" true
      (U256.lt (Pool.liquidity pool) liquidity_before);
    Alcotest.(check bool) "tick table consistent" true (Pool.check_liquidity_consistency pool)

(* ------------------------------------------------------------------ *)
(* Liquidity management                                                *)
(* ------------------------------------------------------------------ *)

let test_mint_creates_position () =
  let pool = seeded_pool () in
  match
    Router.mint pool ~position_id:(pid "p1") ~owner:(addr "alice") ~lower_tick:(-600)
      ~upper_tick:600 ~amount0_desired:one_e18 ~amount1_desired:one_e18
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check bool) "liquidity minted" true (U256.gt o.Router.minted_liquidity U256.zero);
    Alcotest.(check bool) "within budget" true
      (U256.le o.Router.amount0_used one_e18 && U256.le o.Router.amount1_used one_e18);
    (match Pool.find_position pool (pid "p1") with
    | Some p ->
      Alcotest.(check bool) "owner recorded" true
        (Chain.Address.equal p.Position.owner (addr "alice"))
    | None -> Alcotest.fail "position not found")

let test_mint_supplement_same_owner_only () =
  let pool = seeded_pool () in
  ignore
    (Router.mint pool ~position_id:(pid "p1") ~owner:(addr "alice") ~lower_tick:(-600)
       ~upper_tick:600 ~amount0_desired:one_e18 ~amount1_desired:one_e18);
  (match
     Router.mint pool ~position_id:(pid "p1") ~owner:(addr "alice") ~lower_tick:(-600)
       ~upper_tick:600 ~amount0_desired:one_e18 ~amount1_desired:one_e18
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "same owner supplement rejected: %s" e);
  match
    Router.mint pool ~position_id:(pid "p1") ~owner:(addr "mallory") ~lower_tick:(-600)
      ~upper_tick:600 ~amount0_desired:one_e18 ~amount1_desired:one_e18
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "other owner could supplement"

let test_mint_invalid_ticks () =
  let pool = seeded_pool () in
  let try_mint lower upper =
    Router.mint pool ~position_id:(pid "bad") ~owner:(addr "x") ~lower_tick:lower
      ~upper_tick:upper ~amount0_desired:one_e18 ~amount1_desired:one_e18
  in
  (match try_mint 600 (-600) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "inverted range accepted");
  (match try_mint (-61) 60 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "off-spacing accepted");
  match try_mint (-887280) 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "below min tick accepted"

let test_burn_partial_and_full () =
  let pool = seeded_pool () in
  ignore
    (Router.mint pool ~position_id:(pid "p1") ~owner:(addr "alice") ~lower_tick:(-600)
       ~upper_tick:600 ~amount0_desired:one_e21 ~amount1_desired:one_e21);
  (match
     Router.burn pool ~position_id:(pid "p1") ~caller:(addr "alice")
       ~amount0_requested:one_e18 ~amount1_requested:one_e18
   with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check bool) "partial burn keeps position" false o.Router.position_deleted;
    Alcotest.(check bool) "owed credited" true
      (U256.gt o.Router.amount0_owed U256.zero || U256.gt o.Router.amount1_owed U256.zero));
  match
    Router.burn pool ~position_id:(pid "p1") ~caller:(addr "alice")
      ~amount0_requested:U256.max_value ~amount1_requested:U256.max_value
  with
  | Error e -> Alcotest.fail e
  | Ok o -> Alcotest.(check bool) "full burn deletes" true o.Router.position_deleted

let test_burn_ownership_and_unknown () =
  let pool = seeded_pool () in
  ignore
    (Router.mint pool ~position_id:(pid "p1") ~owner:(addr "alice") ~lower_tick:(-600)
       ~upper_tick:600 ~amount0_desired:one_e21 ~amount1_desired:one_e21);
  (match
     Router.burn pool ~position_id:(pid "p1") ~caller:(addr "bob")
       ~amount0_requested:one_e18 ~amount1_requested:one_e18
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-owner burned");
  match
    Router.burn pool ~position_id:(pid "ghost") ~caller:(addr "alice")
      ~amount0_requested:one_e18 ~amount1_requested:one_e18
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown position burned"

let test_fees_accrue_and_collect () =
  let pool = seeded_pool () in
  ignore
    (Router.mint pool ~position_id:(pid "p1") ~owner:(addr "alice") ~lower_tick:(-6000)
       ~upper_tick:6000 ~amount0_desired:one_e21 ~amount1_desired:one_e21);
  (* Trade back and forth to accrue fees on both sides. *)
  for _ = 1 to 10 do
    ignore (Router.exact_input pool ~zero_for_one:true ~amount_in:one_e21 ~min_amount_out:U256.zero ());
    ignore (Router.exact_input pool ~zero_for_one:false ~amount_in:one_e21 ~min_amount_out:U256.zero ())
  done;
  match
    Router.collect pool ~position_id:(pid "p1") ~caller:(addr "alice")
      ~amount0_requested:U256.max_value ~amount1_requested:U256.max_value
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check bool) "fees collected on token0" true (U256.gt o.Router.collected0 U256.zero);
    Alcotest.(check bool) "fees collected on token1" true (U256.gt o.Router.collected1 U256.zero);
    Alcotest.(check bool) "position survives (still has liquidity)" false o.Router.position_deleted

let test_fees_proportional_to_liquidity () =
  let pool = seeded_pool () in
  (* Two identical-range positions, one with ~3x the liquidity. *)
  ignore
    (Router.mint pool ~position_id:(pid "small") ~owner:(addr "a") ~lower_tick:(-6000)
       ~upper_tick:6000 ~amount0_desired:one_e21 ~amount1_desired:one_e21);
  ignore
    (Router.mint pool ~position_id:(pid "big") ~owner:(addr "b") ~lower_tick:(-6000)
       ~upper_tick:6000 ~amount0_desired:(U256.mul one_e21 (U256.of_int 3))
       ~amount1_desired:(U256.mul one_e21 (U256.of_int 3)));
  for _ = 1 to 6 do
    ignore (Router.exact_input pool ~zero_for_one:true ~amount_in:one_e21 ~min_amount_out:U256.zero ());
    ignore (Router.exact_input pool ~zero_for_one:false ~amount_in:one_e21 ~min_amount_out:U256.zero ())
  done;
  let collect id owner =
    match
      Router.collect pool ~position_id:(pid id) ~caller:(addr owner)
        ~amount0_requested:U256.max_value ~amount1_requested:U256.max_value
    with
    | Ok o -> U256.to_float o.Router.collected0 +. U256.to_float o.Router.collected1
    | Error e -> Alcotest.failf "collect: %s" e
  in
  let small = collect "small" "a" and big = collect "big" "b" in
  let ratio = big /. small in
  Alcotest.(check bool) (Printf.sprintf "fee ratio %.3f ~ 3" ratio) true
    (ratio > 2.8 && ratio < 3.2)

let test_out_of_range_position_earns_nothing () =
  let pool = seeded_pool () in
  ignore
    (Router.mint pool ~position_id:(pid "far") ~owner:(addr "a") ~lower_tick:60000
       ~upper_tick:120000 ~amount0_desired:one_e21 ~amount1_desired:one_e21);
  for _ = 1 to 5 do
    ignore (Router.exact_input pool ~zero_for_one:true ~amount_in:one_e18 ~min_amount_out:U256.zero ())
  done;
  match
    Router.collect pool ~position_id:(pid "far") ~caller:(addr "a")
      ~amount0_requested:U256.max_value ~amount1_requested:U256.max_value
  with
  | Ok o ->
    Alcotest.check check_u256 "no fees 0" U256.zero o.Router.collected0;
    Alcotest.check check_u256 "no fees 1" U256.zero o.Router.collected1
  | Error e -> Alcotest.fail e

(* The only in-range position earns the whole swap fee: nothing is cut
   for a protocol, and fee-growth accounting loses at most rounding. *)
let test_sole_lp_earns_whole_fee () =
  let pool = fresh_pool () in
  (match
     Router.mint pool ~position_id:(pid "sole") ~owner:(addr "lp") ~lower_tick:(-6000)
       ~upper_tick:6000 ~amount0_desired:one_e24 ~amount1_desired:one_e24
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  let spent zero_for_one =
    match Router.exact_input pool ~zero_for_one ~amount_in:one_e21 ~min_amount_out:U256.zero () with
    | Ok o -> o.Router.spent
    | Error e -> Alcotest.fail e
  in
  let spent0 = spent true in
  let spent1 = spent false in
  match
    Router.collect pool ~position_id:(pid "sole") ~caller:(addr "lp")
      ~amount0_requested:U256.max_value ~amount1_requested:U256.max_value
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    (* spent · fee_pips / 10^6, within 2 wei of fee-growth rounding *)
    let near_fee label spent collected =
      let fee = U256.div (U256.mul spent (U256.of_int (Pool.fee_pips pool))) (U256.of_int 1_000_000) in
      let gap = if U256.ge fee collected then U256.sub fee collected else U256.sub collected fee in
      Alcotest.(check bool)
        (Printf.sprintf "%s: collected %s vs fee %s" label (U256.to_string collected)
           (U256.to_string fee))
        true (U256.le gap (U256.of_int 2))
    in
    near_fee "token0" spent0 o.Router.collected0;
    near_fee "token1" spent1 o.Router.collected1

let test_swap_matches_paper_cfmm_formula () =
  (* §2 of the paper: for reserves res_A, res_B, an input amt_A yields
     amt_B = res_B − res_A·res_B/(res_A + amt_A). With a full-range
     position this must match the tick engine to high precision (after
     removing the 0.3% fee from the input). *)
  let pool = seeded_pool () in
  let res_a = U256.to_float (Pool.balance0 pool) in
  let res_b = U256.to_float (Pool.balance1 pool) in
  let amount = u "3000000000000000000000" in
  match Router.exact_input pool ~zero_for_one:true ~amount_in:amount ~min_amount_out:U256.zero () with
  | Error e -> Alcotest.fail e
  | Ok o ->
    let amt_a = U256.to_float amount *. 0.997 (* fee excluded from the curve *) in
    let expected = res_b -. (res_a *. res_b /. (res_a +. amt_a)) in
    let got = U256.to_float o.Router.received in
    let rel = Float.abs ((got -. expected) /. expected) in
    if rel > 1e-4 then
      Alcotest.failf "CFMM mismatch: got %.6g, formula %.6g (rel %.2e)" got expected rel

(* ------------------------------------------------------------------ *)
(* Randomized invariants                                               *)
(* ------------------------------------------------------------------ *)

let gen_ops =
  QCheck2.Gen.(list_size (int_range 5 40) (pair (int_range 0 3) (int_range 1 1000)))

let invariant_props =
  let prop name gen f =
    QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:40 ~name gen f)
  in
  [ prop "random op sequences keep pool consistent" gen_ops (fun ops ->
        let pool = seeded_pool () in
        let owner = addr "fuzz" in
        let minted = ref [] in
        let n = ref 0 in
        List.iter
          (fun (op, magnitude) ->
            let amount = U256.mul one_e18 (U256.of_int magnitude) in
            match op with
            | 0 ->
              ignore
                (Router.exact_input pool ~zero_for_one:(magnitude mod 2 = 0)
                   ~amount_in:amount ~min_amount_out:U256.zero ())
            | 1 ->
              incr n;
              let id = pid (Printf.sprintf "fz%d" !n) in
              (match
                 Router.mint pool ~position_id:id ~owner ~lower_tick:(-1200)
                   ~upper_tick:1200 ~amount0_desired:amount ~amount1_desired:amount
               with
              | Ok _ -> minted := id :: !minted
              | Error _ -> ())
            | 2 ->
              (match !minted with
              | id :: rest ->
                (match
                   Router.burn pool ~position_id:id ~caller:owner
                     ~amount0_requested:U256.max_value ~amount1_requested:U256.max_value
                 with
                | Ok o -> if o.Router.position_deleted then minted := rest
                | Error _ -> ())
              | [] -> ())
            | _ ->
              (match !minted with
              | id :: _ ->
                ignore
                  (Router.collect pool ~position_id:id ~caller:owner
                     ~amount0_requested:U256.max_value ~amount1_requested:U256.max_value)
              | [] -> ()))
          ops;
        Pool.check_liquidity_consistency pool);
    prop "swap round trip loses money (no free lunch)"
      (QCheck2.Gen.int_range 1 100_000)
      (fun magnitude ->
        let pool = seeded_pool () in
        let amount = U256.mul (u "10000000000000000") (U256.of_int magnitude) in
        match
          Router.exact_input pool ~zero_for_one:true ~amount_in:amount
            ~min_amount_out:U256.zero ()
        with
        | Error _ -> true
        | Ok o1 ->
          (match
             Router.exact_input pool ~zero_for_one:false ~amount_in:o1.Router.received
               ~min_amount_out:U256.zero ()
           with
          | Error _ -> true
          | Ok o2 -> U256.lt o2.Router.received amount));
    (* The two checks the cross-layer monitor leans on (lib/monitor): the
       whole interleaving is derived from one generated seed through the
       deterministic Rng, so a failure reproduces from the printed int. *)
    prop "seeded interleavings preserve solvency"
      (QCheck2.Gen.int_range 0 1_000_000)
      (fun seed ->
        let rng = Amm_crypto.Rng.create (Printf.sprintf "pool-fuzz-%d" seed) in
        let pool = seeded_pool () in
        let owner = addr "fuzz" in
        let minted = ref [] in
        let n = ref 0 in
        let steps = 5 + Amm_crypto.Rng.int rng 36 in
        let ok = ref true in
        for _ = 1 to steps do
          let magnitude = 1 + Amm_crypto.Rng.int rng 1000 in
          let amount = U256.mul one_e18 (U256.of_int magnitude) in
          (match Amm_crypto.Rng.int rng 4 with
          | 0 ->
            ignore
              (Router.exact_input pool ~zero_for_one:(Amm_crypto.Rng.bool rng)
                 ~amount_in:amount ~min_amount_out:U256.zero ())
          | 1 ->
            incr n;
            let id = pid (Printf.sprintf "sf%d-%d" seed !n) in
            (match
               Router.mint pool ~position_id:id ~owner ~lower_tick:(-1200)
                 ~upper_tick:1200 ~amount0_desired:amount ~amount1_desired:amount
             with
            | Ok _ -> minted := id :: !minted
            | Error _ -> ())
          | 2 ->
            (match !minted with
            | id :: rest ->
              (match
                 Router.burn pool ~position_id:id ~caller:owner
                   ~amount0_requested:U256.max_value ~amount1_requested:U256.max_value
               with
              | Ok o -> if o.Router.position_deleted then minted := rest
              | Error _ -> ())
            | [] -> ())
          | _ ->
            (match !minted with
            | id :: _ ->
              ignore
                (Router.collect pool ~position_id:id ~caller:owner
                   ~amount0_requested:U256.max_value ~amount1_requested:U256.max_value)
            | [] -> ()));
          ok :=
            !ok && Pool.check_owed_solvency pool
            && Pool.check_liquidity_consistency pool
        done;
        !ok);
    prop "seeded interleavings keep fee growth monotone"
      (QCheck2.Gen.int_range 0 1_000_000)
      (fun seed ->
        let rng = Amm_crypto.Rng.create (Printf.sprintf "fee-fuzz-%d" seed) in
        let pool = seeded_pool () in
        let owner = addr "fuzz" in
        let n = ref 0 in
        let last0 = ref (Pool.fee_growth_global0 pool) in
        let last1 = ref (Pool.fee_growth_global1 pool) in
        let ok = ref true in
        let steps = 5 + Amm_crypto.Rng.int rng 26 in
        for _ = 1 to steps do
          let magnitude = 1 + Amm_crypto.Rng.int rng 1000 in
          let amount = U256.mul one_e18 (U256.of_int magnitude) in
          (match Amm_crypto.Rng.int rng 3 with
          | 0 ->
            ignore
              (Router.exact_input pool ~zero_for_one:(Amm_crypto.Rng.bool rng)
                 ~amount_in:amount ~min_amount_out:U256.zero ())
          | 1 ->
            incr n;
            ignore
              (Router.mint pool
                 ~position_id:(pid (Printf.sprintf "ff%d-%d" seed !n))
                 ~owner ~lower_tick:(-1200) ~upper_tick:1200
                 ~amount0_desired:amount ~amount1_desired:amount)
          | _ ->
            ignore
              (Router.exact_input pool ~zero_for_one:(Amm_crypto.Rng.bool rng)
                 ~amount_in:(U256.div amount (U256.of_int 7))
                 ~min_amount_out:U256.zero ()));
          let g0 = Pool.fee_growth_global0 pool in
          let g1 = Pool.fee_growth_global1 pool in
          ok := !ok && U256.le !last0 g0 && U256.le !last1 g1;
          last0 := g0;
          last1 := g1
        done;
        !ok) ]

(* ------------------------------------------------------------------ *)
(* The in-place swap against the oracle pool                           *)
(* ------------------------------------------------------------------ *)

(* A value of [lo]..[hi] significant bits: the top one set, the rest
   random. *)
let gen_u256_bits lo hi =
  QCheck2.Gen.(
    map2
      (fun bits b ->
        let v = U256.shift_right (U256.of_bytes_be b) (256 - bits) in
        U256.logor v (U256.shift_left U256.one (bits - 1)))
      (int_range lo hi)
      (bytes_size (return 32)))

type op =
  | Mint of int * int * U256.t  (* lower (spacings from the price), width, liquidity *)
  | Supplement of int * U256.t  (* existing position, liquidity *)
  | Burn of int * int  (* existing position, percent of its liquidity *)
  | Collect of int * U256.t * U256.t
  | Swap of bool * bool * U256.t * int
      (* zero_for_one, exact_in, amount, limit: 0 the default, 1-999 that
         many thousandths of the way to the edge, 1000 an invalid one *)

let show_op = function
  | Mint (k, w, l) -> Printf.sprintf "mint %d+%d %s" k w (U256.to_string l)
  | Supplement (i, l) -> Printf.sprintf "supplement #%d %s" i (U256.to_string l)
  | Burn (i, pct) -> Printf.sprintf "burn #%d %d%%" i pct
  | Collect (i, a, b) ->
    Printf.sprintf "collect #%d %s %s" i (U256.to_string a) (U256.to_string b)
  | Swap (z, e, a, l) ->
    Printf.sprintf "swap %s %s %s limit %d" (if z then "0->1" else "1->0")
      (if e then "in" else "out") (U256.to_string a) l

let gen_op =
  let open QCheck2.Gen in
  let liquidity = frequency [ (3, gen_u256_bits 1 80); (2, gen_u256_bits 60 128) ] in
  (* Amounts past 2^62 leave every native-int fast path; past ~2^160 a
     token0 input overflows amount * sqrt_price. *)
  let amount =
    frequency [ (3, gen_u256_bits 1 62); (3, gen_u256_bits 63 140); (2, gen_u256_bits 140 255) ]
  in
  let owed = frequency [ (3, gen_u256_bits 1 100); (1, return U256.max_value) ] in
  frequency
    [ ( 3,
        map3
          (fun k w l -> Mint (k, w, l))
          (frequency [ (4, int_range (-40) 40); (1, return max_int) ])
          (int_range 1 40) liquidity );
      (1, map2 (fun i l -> Supplement (i, l)) (int_range 0 1000) liquidity);
      (2, map2 (fun i pct -> Burn (i, pct)) (int_range 0 1000) (int_range 1 100));
      (1, map3 (fun i a b -> Collect (i, a, b)) (int_range 0 1000) owed owed);
      ( 8,
        map2
          (fun (z, e) (a, l) -> Swap (z, e, a, l))
          (pair bool bool)
          (pair amount (frequency [ (3, return 0); (3, int_range 1 999); (1, return 1000) ])) ) ]

let gen_scenario =
  QCheck2.Gen.(
    quad
      (oneofl [ 0; 100; 500; 3000; 10000; 1_000_000 ])
      (oneofl [ 1; 10; 60; 200 ])
      (int_range (-200_000) 200_000)
      (list_size (int_range 1 40) gen_op))

let show_scenario (fee, spacing, tick, ops) =
  Printf.sprintf "fee %d spacing %d tick %d:\n  %s" fee spacing tick
    (String.concat "\n  " (List.map show_op ops))

(* A value, or the exception that replaced it. *)
let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let show_amounts (a, b) = U256.to_string a ^ "," ^ U256.to_string b

let pool_scalars pool =
  List.map U256.to_string
    [ Pool.sqrt_price pool; Pool.liquidity pool; Pool.fee_growth_global0 pool;
      Pool.fee_growth_global1 pool; Pool.balance0 pool; Pool.balance1 pool ]
  @ [ string_of_int (Pool.current_tick pool) ]

let ref_scalars (r : Ref_pool.t) =
  List.map U256.to_string
    [ r.sqrt_price; r.liquidity; r.fee_growth_global0; r.fee_growth_global1; r.balance0;
      r.balance1 ]
  @ [ string_of_int r.tick ]

(* Runs the op on both pools and says whether their outcomes and images
   still agree. A library call that returns [Error] has changed nothing,
   so the oracle (which checks no argument) does not run. *)
let run_op ~spacing pool (oracle : Ref_pool.t) ~positions ~ticks ~n op =
  let owner = addr "oracle-lp" in
  let align_down t = if t >= 0 then t / spacing * spacing else -((-t + spacing - 1) / spacing * spacing) in
  let lo_edge = -(Amm_math.Tick_math.max_tick / spacing * spacing) in
  let hi_edge = Amm_math.Tick_math.max_tick / spacing * spacing in
  let live () = List.filter (fun id -> Pool.find_position pool id <> None) !positions in
  let pick i = match live () with [] -> None | l -> Some (List.nth l (i mod List.length l)) in
  let same_amounts lib run =
    match lib with
    | Ok (Error _) -> true
    | Ok (Ok v) -> (
      match outcome run with Ok w -> show_amounts v = show_amounts w | Error _ -> false)
    | Error e -> (match outcome run with Error e' -> e = e' | Ok _ -> false)
  in
  let agree =
    match op with
    | Mint (k, w, liquidity) ->
      let lower, upper =
        if k = max_int then (lo_edge, hi_edge)
        else
          let lower = align_down (Pool.current_tick pool) + (k * spacing) in
          (Stdlib.max lo_edge lower, Stdlib.min hi_edge (lower + (w * spacing)))
      in
      incr n;
      let id = pid (Printf.sprintf "oracle-%d" !n) in
      positions := id :: !positions;
      ticks := lower :: upper :: !ticks;
      same_amounts
        (outcome (fun () ->
             Pool.mint pool ~position_id:id ~owner ~lower_tick:lower ~upper_tick:upper ~liquidity))
        (fun () ->
          Ref_pool.mint oracle ~position_id:id ~owner ~lower_tick:lower ~upper_tick:upper
            ~liquidity)
    | Supplement (i, liquidity) -> (
      match pick i with
      | None -> true
      | Some id ->
        let p = Option.get (Pool.find_position pool id) in
        let lower = p.Position.lower_tick and upper = p.Position.upper_tick in
        same_amounts
          (outcome (fun () ->
               Pool.mint pool ~position_id:id ~owner ~lower_tick:lower ~upper_tick:upper
                 ~liquidity))
          (fun () ->
            Ref_pool.mint oracle ~position_id:id ~owner ~lower_tick:lower ~upper_tick:upper
              ~liquidity))
    | Burn (i, pct) -> (
      match pick i with
      | None -> true
      | Some id ->
        let held = (Option.get (Pool.find_position pool id)).Position.liquidity in
        let liquidity = U256.mul_div held (U256.of_int pct) (U256.of_int 100) in
        let liquidity = if U256.is_zero liquidity then held else liquidity in
        same_amounts
          (outcome (fun () -> Pool.burn pool ~position_id:id ~liquidity))
          (fun () -> Ref_pool.burn oracle ~position_id:id ~liquidity))
    | Collect (i, amount0_requested, amount1_requested) -> (
      match pick i with
      | None -> true
      | Some id ->
        same_amounts
          (outcome (fun () ->
               Pool.collect pool ~position_id:id ~amount0_requested ~amount1_requested))
          (fun () ->
            Ref_pool.collect oracle ~position_id:id ~amount0_requested ~amount1_requested))
    | Swap (zero_for_one, exact_in, a, limit) ->
      let amount = if exact_in then Swap_math.Exact_in a else Swap_math.Exact_out a in
      let sqrt_price_limit =
        if limit = 0 then Pool.default_price_limit ~zero_for_one
        else if limit = 1000 then Pool.sqrt_price pool
        else
          let here = Pool.current_tick pool in
          let edge = if zero_for_one then Amm_math.Tick_math.min_tick else Amm_math.Tick_math.max_tick in
          let tick = here + ((edge - here) * limit / 1000) in
          Amm_math.Tick_math.get_sqrt_ratio_at_tick
            (Stdlib.max Amm_math.Tick_math.min_tick (Stdlib.min Amm_math.Tick_math.max_tick tick))
      in
      let show_lib (r : Pool.swap_result) =
        String.concat ","
          (List.map U256.to_string [ r.amount_in; r.amount_out; r.fee_paid; r.sqrt_price_after ]
          @ List.map string_of_int [ r.tick_after; r.ticks_crossed ])
      in
      let show_ref (r : Ref_pool.swap_result) =
        String.concat ","
          (List.map U256.to_string [ r.amount_in; r.amount_out; r.fee_paid; r.sqrt_price_after ]
          @ List.map string_of_int [ r.tick_after; r.ticks_crossed ])
      in
      let lib = outcome (fun () -> Pool.swap pool ~zero_for_one ~amount ~sqrt_price_limit) in
      let orc = outcome (fun () -> Ref_pool.swap oracle ~zero_for_one ~amount ~sqrt_price_limit) in
      (match (lib, orc) with
      | Ok (Ok r), Ok (Ok r') -> show_lib r = show_ref r'
      | Ok (Error e), Ok (Error e') -> e = e'
      | Error e, Error e' -> e = e'
      | _ -> false)
  in
  agree
  && pool_scalars pool = ref_scalars oracle
  && List.for_all
       (fun id -> Pool.position_bytes pool id = Ref_pool.position_bytes oracle id)
       !positions
  && List.for_all (fun tk -> Pool.tick_bytes pool tk = Ref_pool.tick_bytes oracle tk) !ticks

let oracle_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"in-place swap = oracle pool" ~print:show_scenario
       gen_scenario (fun (fee, spacing, tick, ops) ->
         let sqrt_price = Amm_math.Tick_math.get_sqrt_ratio_at_tick tick in
         let pool =
           Pool.create ~pool_id:0
             ~token0:(Chain.Token.make ~id:0 ~symbol:"TKA")
             ~token1:(Chain.Token.make ~id:1 ~symbol:"TKB")
             ~fee_pips:fee ~tick_spacing:spacing ~sqrt_price
         in
         let oracle = Ref_pool.create ~fee_pips:fee ~tick_spacing:spacing ~sqrt_price in
         let positions = ref [] and ticks = ref [] and n = ref 0 in
         List.for_all (run_op ~spacing pool oracle ~positions ~ticks ~n) ops))

(* ------------------------------------------------------------------ *)
(* Allocation and aliasing                                             *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words of [f ()], after one warm-up call. *)
let words_of_call f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_swap_allocation () =
  (* A full-range pool deep enough that a 1e18 swap stays within one
     step: the loop's registers carry the step, the totals and the fee
     growth, so what is left is the published copies (price, fee growth,
     balances, the three totals) and the result record. *)
  let pool = seeded_pool () in
  let flip = ref true in
  let last = ref (Error "no swap") in
  let swap () =
    flip := not !flip;
    last :=
      Pool.swap pool ~zero_for_one:!flip ~amount:(Swap_math.Exact_in one_e18)
        ~sqrt_price_limit:(Pool.default_price_limit ~zero_for_one:!flip)
  in
  (* The first swaps each way fill the tick memo along the search paths
     of the prices they reach. *)
  for _ = 1 to 4 do
    swap ()
  done;
  let words = words_of_call swap in
  (match !last with
  | Ok r -> Alcotest.(check int) "no tick crossed" 0 r.Pool.ticks_crossed
  | Error e -> Alcotest.fail e);
  if words > 100. then Alcotest.failf "one-step swap allocated %.0f words (budget 100)" words

let test_clone_unaffected_by_swaps () =
  let pool = seeded_pool () in
  (match
     Router.mint pool ~position_id:(pid "narrow") ~owner:(addr "lp") ~lower_tick:(-600)
       ~upper_tick:600 ~amount0_desired:one_e21 ~amount1_desired:one_e21
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let swap zero_for_one amount =
    ignore
      (Router.exact_input pool ~zero_for_one ~amount_in:amount ~min_amount_out:U256.zero ())
  in
  swap true one_e18;
  let clone = Pool.clone pool in
  let images p =
    ( Durable.State_codec.pool_bytes p,
      List.map (Pool.position_bytes p) [ pid "genesis"; pid "narrow" ],
      List.map (Pool.tick_bytes p) [ -887220; -600; 600; 887220 ] )
  in
  let before = images clone in
  (* Cross the narrow range both ways: every scalar, both positions' fee
     growth and all four ticks' outside values move in the original. *)
  swap true (U256.mul one_e21 (U256.of_int 50));
  swap false (U256.mul one_e21 (U256.of_int 100));
  Alcotest.(check bool) "original moved" false (images pool = before);
  Alcotest.(check bool) "clone's images unchanged" true (images clone = before)

let test_tick_keeps_fee_growth_outside () =
  let pool = seeded_pool () in
  let swap zero_for_one =
    ignore
      (Router.exact_input pool ~zero_for_one ~amount_in:one_e18 ~min_amount_out:U256.zero ())
  in
  swap true;
  swap false;
  (* Ticks at or below the price take the global fee growth as their
     outside value, by reference. *)
  (match
     Router.mint pool ~position_id:(pid "below") ~owner:(addr "lp") ~lower_tick:(-1200)
       ~upper_tick:1200 ~amount0_desired:one_e21 ~amount1_desired:one_e21
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let before = Pool.tick_bytes pool (-1200) in
  Alcotest.(check (option bytes)) "outside = global"
    (Some (U256.to_bytes_be (Pool.fee_growth_global0 pool)))
    (Option.map (fun b -> Bytes.sub b 65 32) before);
  swap true;
  swap false;
  Alcotest.(check bool) "fees accrued" true
    (not (U256.is_zero (Pool.fee_growth_global0 pool)));
  Alcotest.(check (option bytes)) "fee_growth_outside bytes kept" before
    (Pool.tick_bytes pool (-1200))

let () =
  Alcotest.run "uniswap"
    [ ( "tick table",
        [ Alcotest.test_case "update flip" `Quick test_tick_update_flip;
          Alcotest.test_case "spacing enforced" `Quick test_tick_spacing_enforced;
          Alcotest.test_case "next initialized" `Quick test_tick_next_initialized ] );
      ( "swaps",
        [ Alcotest.test_case "exact input" `Quick test_swap_exact_input_output_relation;
          Alcotest.test_case "price direction" `Quick test_swap_price_moves_correct_direction;
          Alcotest.test_case "k never decreases" `Quick test_swap_k_never_decreases;
          Alcotest.test_case "exact output" `Quick test_swap_exact_output;
          Alcotest.test_case "slippage guards" `Quick test_swap_slippage_guards;
          Alcotest.test_case "price limit partial" `Quick test_swap_price_limit_partial_fill_rejected;
          Alcotest.test_case "zero amount" `Quick test_swap_zero_amount_rejected;
          Alcotest.test_case "empty pool" `Quick test_swap_empty_pool_rejected;
          Alcotest.test_case "tick crossing" `Quick test_swap_crosses_ticks;
          Alcotest.test_case "matches paper CFMM formula" `Quick
            test_swap_matches_paper_cfmm_formula ] );
      ( "liquidity",
        [ Alcotest.test_case "mint creates position" `Quick test_mint_creates_position;
          Alcotest.test_case "supplement ownership" `Quick test_mint_supplement_same_owner_only;
          Alcotest.test_case "invalid ticks" `Quick test_mint_invalid_ticks;
          Alcotest.test_case "burn partial/full" `Quick test_burn_partial_and_full;
          Alcotest.test_case "burn ownership" `Quick test_burn_ownership_and_unknown;
          Alcotest.test_case "fees accrue+collect" `Quick test_fees_accrue_and_collect;
          Alcotest.test_case "fees proportional" `Quick test_fees_proportional_to_liquidity;
          Alcotest.test_case "out of range no fees" `Quick test_out_of_range_position_earns_nothing ] );
      ("invariants", invariant_props);
      ( "in place pool",
        [ oracle_prop;
          Alcotest.test_case "one-step swap allocation" `Quick test_swap_allocation;
          Alcotest.test_case "clone unaffected by swaps" `Quick test_clone_unaffected_by_swaps;
          Alcotest.test_case "tick keeps fee growth outside" `Quick
            test_tick_keeps_fee_growth_outside ] );
      ( "LP fee credit",
        [ Alcotest.test_case "sole LP earns the whole fee" `Quick test_sole_lp_earns_whole_fee ] ) ]
