(* The concentrated-liquidity pool: swaps, tick crossing, fee accounting,
   mint/burn/collect — plus randomized invariant checks
   (constant product never shrinks, tick-table consistency, LP
   no-free-lunch). *)

module U256 = Amm_math.U256
module Q96 = Amm_math.Q96
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
      ( "LP fee credit",
        [ Alcotest.test_case "sole LP earns the whole fee" `Quick test_sole_lp_earns_whole_fee ] ) ]
