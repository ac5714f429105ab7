(* Tick math, sqrt-price math, swap-step math, liquidity math — checked
   against Uniswap V3's published values and cross-checked against
   floating-point models. *)

open Amm_math

let u = U256.of_string
let check_u256 = Alcotest.testable U256.pp U256.equal
let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

(* ------------------------------------------------------------------ *)
(* Tick math                                                           *)
(* ------------------------------------------------------------------ *)

let test_tick_endpoints () =
  Alcotest.check check_u256 "min ratio" Tick_math.min_sqrt_ratio
    (Tick_math.get_sqrt_ratio_at_tick Tick_math.min_tick);
  Alcotest.check check_u256 "max ratio" Tick_math.max_sqrt_ratio
    (Tick_math.get_sqrt_ratio_at_tick Tick_math.max_tick);
  Alcotest.check check_u256 "tick 0 is 2^96" Q96.q96 (Tick_math.get_sqrt_ratio_at_tick 0)

let test_tick_out_of_range () =
  Alcotest.check_raises "beyond max" (Invalid_argument
    "Tick_math.get_sqrt_ratio_at_tick: tick 887273 out of range") (fun () ->
      ignore (Tick_math.get_sqrt_ratio_at_tick (Tick_math.max_tick + 1)))

let test_tick_float_crosscheck () =
  (* sqrt(1.0001^t) within 1e-9 relative error across the range. *)
  List.iter
    (fun t ->
      let exact = Q96.to_float_q96 (Tick_math.get_sqrt_ratio_at_tick t) in
      let expected = Float.pow 1.0001 (float_of_int t /. 2.0) in
      let rel = Float.abs ((exact -. expected) /. expected) in
      if rel > 1e-9 then
        Alcotest.failf "tick %d: got %.15g expected %.15g (rel %.2e)" t exact expected rel)
    [ -500_000; -100_000; -12_345; -1; 1; 60; 887; 123_456; 500_000; 800_000 ]

let test_tick_inverse_roundtrip () =
  List.iter
    (fun t ->
      Alcotest.(check int)
        (Printf.sprintf "roundtrip %d" t)
        t
        (Tick_math.get_tick_at_sqrt_ratio (Tick_math.get_sqrt_ratio_at_tick t)))
    [ Tick_math.min_tick; -100_000; -60; -1; 0; 1; 60; 100_000; Tick_math.max_tick - 1 ]

let test_tick_memo_matches_uncached () =
  (* The memoised entry point must agree with the recomputed ratio across
     the full tick range at every pool tick spacing, and exhaustively in
     the band swap traffic actually visits. *)
  let check_tick t =
    Alcotest.check check_u256
      (Printf.sprintf "tick %d" t)
      (Tick_math.get_sqrt_ratio_at_tick_uncached t)
      (Tick_math.get_sqrt_ratio_at_tick t)
  in
  List.iter
    (fun spacing ->
      let t = ref (-(Tick_math.max_tick / spacing * spacing)) in
      while !t <= Tick_math.max_tick do
        check_tick !t;
        t := !t + spacing
      done)
    [ 200; 60; 10 ];
  for t = -1000 to 1000 do
    check_tick t
  done;
  (* Second lookup hits the memo: still the same value. *)
  check_tick 123456;
  check_tick 123456

let tick_gen = QCheck2.Gen.int_range Tick_math.min_tick Tick_math.max_tick

let tick_props =
  [ prop "ratio monotonic in tick" (QCheck2.Gen.pair tick_gen tick_gen) (fun (a, b) ->
        let a, b = if a <= b then (a, b) else (b, a) in
        U256.le (Tick_math.get_sqrt_ratio_at_tick a) (Tick_math.get_sqrt_ratio_at_tick b));
    prop "tick_at(ratio(t)) = t" tick_gen (fun t ->
        t = Tick_math.max_tick
        || Tick_math.get_tick_at_sqrt_ratio (Tick_math.get_sqrt_ratio_at_tick t) = t);
    prop "tick_at is floor" tick_gen (fun t ->
        (* A ratio strictly between tick t and t+1 maps to t. *)
        if t >= Tick_math.max_tick - 1 then true
        else begin
          let r = Tick_math.get_sqrt_ratio_at_tick t in
          let r' = Tick_math.get_sqrt_ratio_at_tick (t + 1) in
          let mid = U256.div (U256.add r r') U256.two in
          U256.equal mid r || Tick_math.get_tick_at_sqrt_ratio mid = t
        end) ]

(* ------------------------------------------------------------------ *)
(* Sqrt price math                                                     *)
(* ------------------------------------------------------------------ *)

let liquidity_1e21 = u "1000000000000000000000"
let price_1 = Q96.q96

let test_next_price_from_input_directions () =
  let amount = u "1000000000000000000" in
  let down =
    Sqrt_price_math.get_next_sqrt_price_from_input ~sqrt_price:price_1
      ~liquidity:liquidity_1e21 ~amount_in:amount ~zero_for_one:true
  in
  let up =
    Sqrt_price_math.get_next_sqrt_price_from_input ~sqrt_price:price_1
      ~liquidity:liquidity_1e21 ~amount_in:amount ~zero_for_one:false
  in
  Alcotest.(check bool) "token0 in moves price down" true (U256.lt down price_1);
  Alcotest.(check bool) "token1 in moves price up" true (U256.gt up price_1)

let test_next_price_zero_amount () =
  Alcotest.check check_u256 "identity on zero" price_1
    (Sqrt_price_math.get_next_sqrt_price_from_amount0_rounding_up ~sqrt_price:price_1
       ~liquidity:liquidity_1e21 ~amount:U256.zero ~add:true)

let test_amount_deltas_symmetry () =
  let sqrt_a = Tick_math.get_sqrt_ratio_at_tick (-600) in
  let sqrt_b = Tick_math.get_sqrt_ratio_at_tick 600 in
  let d1 = Sqrt_price_math.get_amount0_delta ~sqrt_a ~sqrt_b ~liquidity:liquidity_1e21 ~round_up:false in
  let d2 = Sqrt_price_math.get_amount0_delta ~sqrt_a:sqrt_b ~sqrt_b:sqrt_a ~liquidity:liquidity_1e21 ~round_up:false in
  Alcotest.check check_u256 "order independent" d1 d2;
  let up = Sqrt_price_math.get_amount0_delta ~sqrt_a ~sqrt_b ~liquidity:liquidity_1e21 ~round_up:true in
  Alcotest.(check bool) "round up >= floor" true (U256.ge up d1);
  Alcotest.(check bool) "difference <= 1" true (U256.le (U256.sub up d1) U256.one)

let test_amount1_delta_exact () =
  (* amount1 = L * (sqrt_b - sqrt_a) / 2^96 exactly. *)
  let sqrt_a = price_1 in
  let sqrt_b = U256.add price_1 (U256.shift_left U256.one 90) in
  let expected = U256.mul_div liquidity_1e21 (U256.sub sqrt_b sqrt_a) Q96.q96 in
  Alcotest.check check_u256 "formula"
    expected
    (Sqrt_price_math.get_amount1_delta ~sqrt_a ~sqrt_b ~liquidity:liquidity_1e21 ~round_up:false)

let test_output_exceeding_reserves_raises () =
  Alcotest.check_raises "output too large" U256.Overflow (fun () ->
      ignore
        (Sqrt_price_math.get_next_sqrt_price_from_output ~sqrt_price:price_1
           ~liquidity:(U256.of_int 1000) ~amount_out:(u "1000000000000000000000000")
           ~zero_for_one:true))

let amount_gen =
  QCheck2.Gen.map
    (fun n -> U256.mul (u "1000000000000") (U256.of_int (n + 1)))
    (QCheck2.Gen.int_range 0 1_000_000)

let sqrt_price_props =
  [ prop "input roundtrip bounds output" amount_gen (fun amount_in ->
        (* Pushing amount0 in and asking the implied amount back out never
           produces more than went in (rounding favors the pool). *)
        let next =
          Sqrt_price_math.get_next_sqrt_price_from_input ~sqrt_price:price_1
            ~liquidity:liquidity_1e21 ~amount_in ~zero_for_one:true
        in
        let implied =
          Sqrt_price_math.get_amount0_delta ~sqrt_a:next ~sqrt_b:price_1
            ~liquidity:liquidity_1e21 ~round_up:false
        in
        U256.le implied amount_in);
    prop "next price monotone in amount" (QCheck2.Gen.pair amount_gen amount_gen)
      (fun (a, b) ->
        let small, large = if U256.le a b then (a, b) else (b, a) in
        let p x =
          Sqrt_price_math.get_next_sqrt_price_from_input ~sqrt_price:price_1
            ~liquidity:liquidity_1e21 ~amount_in:x ~zero_for_one:true
        in
        U256.ge (p small) (p large)) ]

(* ------------------------------------------------------------------ *)
(* Swap math                                                           *)
(* ------------------------------------------------------------------ *)

let step ~amount ~fee_pips ~target_tick =
  Swap_math.compute_swap_step ~sqrt_price_current:price_1
    ~sqrt_price_target:(Tick_math.get_sqrt_ratio_at_tick target_tick)
    ~liquidity:liquidity_1e21 ~amount_remaining:amount ~fee_pips

let test_swap_step_exact_in_partial () =
  (* Small input: target not reached; fee = remaining - amount_in. *)
  let amount = u "1000000000000000000" in
  let r = step ~amount:(Swap_math.Exact_in amount) ~fee_pips:3000 ~target_tick:(-60000) in
  Alcotest.(check bool) "did not reach target" true
    (U256.gt r.Swap_math.sqrt_price_next (Tick_math.get_sqrt_ratio_at_tick (-60000)));
  Alcotest.check check_u256 "whole input consumed" amount
    (U256.add r.Swap_math.amount_in r.Swap_math.fee_amount);
  (* 0.3% fee: fee ≈ amount * 0.003 *)
  let expected_fee = U256.mul_div amount (U256.of_int 3000) (U256.of_int 1_000_000) in
  Alcotest.(check bool) "fee close to 30bps" true
    (U256.le (U256.sub (U256.max r.Swap_math.fee_amount expected_fee)
                (U256.min r.Swap_math.fee_amount expected_fee))
       (U256.of_int 10))

let test_swap_step_exact_in_reaches_target () =
  (* Huge input: price stops exactly at the target. *)
  let amount = u "1000000000000000000000000" in
  let r = step ~amount:(Swap_math.Exact_in amount) ~fee_pips:3000 ~target_tick:(-60) in
  Alcotest.check check_u256 "reached target"
    (Tick_math.get_sqrt_ratio_at_tick (-60))
    r.Swap_math.sqrt_price_next;
  Alcotest.(check bool) "input not fully consumed" true
    (U256.lt (U256.add r.Swap_math.amount_in r.Swap_math.fee_amount) amount)

let test_swap_step_exact_out () =
  let amount = u "1000000000000000000" in
  let r = step ~amount:(Swap_math.Exact_out amount) ~fee_pips:3000 ~target_tick:(-60000) in
  Alcotest.check check_u256 "exact output delivered" amount r.Swap_math.amount_out;
  Alcotest.(check bool) "fee on input side" true (U256.gt r.Swap_math.fee_amount U256.zero)

let test_swap_step_zero_fee () =
  let amount = u "1000000000000000000" in
  let r = step ~amount:(Swap_math.Exact_in amount) ~fee_pips:0 ~target_tick:(-60000) in
  Alcotest.check check_u256 "no fee" U256.zero r.Swap_math.fee_amount;
  Alcotest.check check_u256 "all input used" amount r.Swap_math.amount_in

let swap_props =
  [ prop "exact-out never over-delivers" amount_gen (fun amount ->
        let r = step ~amount:(Swap_math.Exact_out amount) ~fee_pips:3000 ~target_tick:(-600) in
        U256.le r.Swap_math.amount_out amount);
    prop "exact-in consumes at most the input" amount_gen (fun amount ->
        let r = step ~amount:(Swap_math.Exact_in amount) ~fee_pips:3000 ~target_tick:(-600) in
        U256.le (U256.add r.Swap_math.amount_in r.Swap_math.fee_amount) amount) ]

let test_swap_step_zero_liquidity_jumps_to_target () =
  (* With no liquidity in range, the price jumps to the target and no
     amounts move — the pool swap loop then crosses to the next tick. *)
  let target = Tick_math.get_sqrt_ratio_at_tick (-600) in
  let r =
    Swap_math.compute_swap_step ~sqrt_price_current:price_1 ~sqrt_price_target:target
      ~liquidity:U256.zero ~amount_remaining:(Swap_math.Exact_in (u "1000000"))
      ~fee_pips:3000
  in
  Alcotest.check check_u256 "price at target" target r.Swap_math.sqrt_price_next;
  Alcotest.check check_u256 "no input" U256.zero r.Swap_math.amount_in;
  Alcotest.check check_u256 "no output" U256.zero r.Swap_math.amount_out

let test_swap_step_fee_monotone_in_fee_pips () =
  let amount = u "1000000000000000000" in
  let fee_at pips =
    (step ~amount:(Swap_math.Exact_in amount) ~fee_pips:pips ~target_tick:(-60000))
      .Swap_math.fee_amount
  in
  Alcotest.(check bool) "higher tier, higher fee" true
    (U256.lt (fee_at 500) (fee_at 3000) && U256.lt (fee_at 3000) (fee_at 10000))

(* ------------------------------------------------------------------ *)
(* Liquidity math                                                      *)
(* ------------------------------------------------------------------ *)

let test_liquidity_for_amounts_in_range () =
  let sqrt_a = Tick_math.get_sqrt_ratio_at_tick (-600) in
  let sqrt_b = Tick_math.get_sqrt_ratio_at_tick 600 in
  let amount = u "1000000000000000000000" in
  let liquidity =
    Liquidity_math.get_liquidity_for_amounts ~sqrt_price:price_1 ~sqrt_a ~sqrt_b
      ~amount0:amount ~amount1:amount
  in
  Alcotest.(check bool) "positive" true (U256.gt liquidity U256.zero);
  let a0, a1 =
    Liquidity_math.get_amounts_for_liquidity ~sqrt_price:price_1 ~sqrt_a ~sqrt_b ~liquidity
  in
  Alcotest.(check bool) "amount0 within budget" true (U256.le a0 amount);
  Alcotest.(check bool) "amount1 within budget" true (U256.le a1 amount)

let test_liquidity_one_sided () =
  let sqrt_a = Tick_math.get_sqrt_ratio_at_tick 600 in
  let sqrt_b = Tick_math.get_sqrt_ratio_at_tick 1200 in
  (* Current price below the range: all liquidity comes from token0. *)
  let liquidity =
    Liquidity_math.get_liquidity_for_amounts ~sqrt_price:price_1 ~sqrt_a ~sqrt_b
      ~amount0:(u "1000000000000000000") ~amount1:U256.zero
  in
  Alcotest.(check bool) "funded by token0 only" true (U256.gt liquidity U256.zero);
  let a0, a1 =
    Liquidity_math.get_amounts_for_liquidity ~sqrt_price:price_1 ~sqrt_a ~sqrt_b ~liquidity
  in
  Alcotest.(check bool) "token0 needed" true (U256.gt a0 U256.zero);
  Alcotest.check check_u256 "no token1 needed" U256.zero a1

let test_apply_delta () =
  Alcotest.check check_u256 "add" (U256.of_int 15)
    (Liquidity_math.apply_delta (U256.of_int 10) (Liquidity_math.Add (U256.of_int 5)));
  Alcotest.check check_u256 "remove" (U256.of_int 5)
    (Liquidity_math.apply_delta (U256.of_int 10) (Liquidity_math.Remove (U256.of_int 5)));
  Alcotest.check_raises "remove too much" U256.Overflow (fun () ->
      ignore (Liquidity_math.apply_delta (U256.of_int 1) (Liquidity_math.Remove U256.two)))

let liquidity_props =
  [ prop "mint amounts round against the LP" amount_gen (fun amount ->
        let sqrt_a = Tick_math.get_sqrt_ratio_at_tick (-600) in
        let sqrt_b = Tick_math.get_sqrt_ratio_at_tick 600 in
        let liquidity =
          Liquidity_math.get_liquidity_for_amounts ~sqrt_price:price_1 ~sqrt_a ~sqrt_b
            ~amount0:amount ~amount1:amount
        in
        U256.is_zero liquidity
        ||
        let f0, f1 =
          Liquidity_math.get_amounts_for_liquidity ~sqrt_price:price_1 ~sqrt_a ~sqrt_b
            ~liquidity
        in
        let u0, u1 =
          Liquidity_math.get_amounts_for_liquidity_rounding_up ~sqrt_price:price_1 ~sqrt_a
            ~sqrt_b ~liquidity
        in
        U256.le f0 u0 && U256.le f1 u1
        && U256.le (U256.sub u0 f0) U256.one
        && U256.le (U256.sub u1 f1) U256.one) ]

(* ------------------------------------------------------------------ *)
(* In place against the oracle formulas                                *)
(* ------------------------------------------------------------------ *)

module R = Ref_swap_math

(* A value of [lo]..[hi] significant bits (0 bits: zero). *)
let gen_bits lo hi =
  QCheck2.Gen.(
    map2
      (fun bits b ->
        if bits = 0 then U256.zero
        else
          U256.logor
            (U256.shift_right (U256.of_bytes_be b) (256 - bits))
            (U256.shift_left U256.one (bits - 1)))
      (int_range lo hi)
      (bytes_size (return 32)))

(* A legal sqrt price: a tick's ratio plus a small offset. *)
let gen_price =
  QCheck2.Gen.(
    map2
      (fun t off ->
        let p = U256.add (Tick_math.get_sqrt_ratio_at_tick t) (U256.of_int off) in
        if U256.ge p Tick_math.max_sqrt_ratio then U256.sub Tick_math.max_sqrt_ratio U256.one
        else p)
      tick_gen (int_range 0 1000))

(* Amounts past 2^62 leave the native-int fast paths; past ~2^160 a
   token0 amount times a price overflows 256 bits. *)
let gen_amount = QCheck2.Gen.(frequency [ (2, gen_bits 0 62); (3, gen_bits 63 255) ])
let gen_liquidity = QCheck2.Gen.(frequency [ (1, return U256.zero); (5, gen_bits 1 128) ])

(* A value, or the exception that replaced it. *)
let outcome f = match f () with v -> Ok (U256.to_string v) | exception e -> Error (Printexc.to_string e)

(* One scratch and one register file for every case, as a pool keeps
   them: a value left behind by an earlier case must not leak into a
   later one. *)
let math = Sqrt_price_math.scratch ()
let step_scratch = Swap_math.scratch ()
let step_regs = Swap_math.registers ()

let show_step (r : Swap_math.step_result) =
  String.concat ","
    (List.map U256.to_string [ r.sqrt_price_next; r.amount_in; r.amount_out; r.fee_amount ])

let step_into ~current ~target ~liquidity ~exact_in ~amount ~fee =
  match
    Swap_math.compute_swap_step_into step_scratch ~dst:step_regs ~sqrt_price_current:current
      ~sqrt_price_target:target ~liquidity ~exact_in ~amount_remaining:amount ~fee_pips:fee
  with
  | () -> Ok (show_step step_regs)
  | exception e -> Error (Printexc.to_string e)

let step_ref ~current ~target ~liquidity ~exact_in ~amount ~fee =
  let amount_remaining =
    if exact_in then R.Swap_math.Exact_in amount else R.Swap_math.Exact_out amount
  in
  match
    R.Swap_math.compute_swap_step ~sqrt_price_current:current ~sqrt_price_target:target
      ~liquidity ~amount_remaining ~fee_pips:fee
  with
  | r -> Ok (show_step r)
  | exception e -> Error (Printexc.to_string e)

let gen_step =
  QCheck2.Gen.(
    tup6 gen_price gen_price gen_liquidity bool gen_amount
      (oneofl [ 0; 1; 500; 3000; 10000; 999_999; 1_000_000; 1_000_001 ]))

let show_step_case (current, target, liquidity, exact_in, amount, fee) =
  Printf.sprintf "current %s target %s L %s %s %s fee %d" (U256.to_string current)
    (U256.to_string target) (U256.to_string liquidity)
    (if exact_in then "in" else "out")
    (U256.to_string amount) fee

(* Which input a formula writes over, to check the aliasing rule: 0 none,
   1 the price or [sqrt_a], 2 the liquidity, 3 the amount or [sqrt_b]. *)
let aliased which inputs =
  match which with
  | 0 -> (U256.scratch (), inputs)
  | k ->
    let copies = List.map U256.copy inputs in
    (List.nth copies (k - 1), copies)

let formula_props =
  let gen = QCheck2.Gen.(tup5 gen_price gen_price gen_liquidity gen_amount (pair bool (int_range 0 3))) in
  let into which (a, b, c) f =
    let dst, args = aliased which [ a; b; c ] in
    match args with
    | [ a; b; c ] -> (
      match f ~dst a b c with
      | () -> Ok (U256.to_string dst)
      | exception e -> Error (Printexc.to_string e))
    | _ -> assert false
  in
  [ prop "next price from input = oracle" gen (fun (p, _, l, a, (z, which)) ->
        into which (p, l, a) (fun ~dst sqrt_price liquidity amount_in ->
            Sqrt_price_math.get_next_sqrt_price_from_input_into math ~dst ~sqrt_price
              ~liquidity ~amount_in ~zero_for_one:z)
        = outcome (fun () ->
              R.Sqrt_price_math.get_next_sqrt_price_from_input ~sqrt_price:p ~liquidity:l
                ~amount_in:a ~zero_for_one:z));
    prop "next price from output = oracle" gen (fun (p, _, l, a, (z, which)) ->
        into which (p, l, a) (fun ~dst sqrt_price liquidity amount_out ->
            Sqrt_price_math.get_next_sqrt_price_from_output_into math ~dst ~sqrt_price
              ~liquidity ~amount_out ~zero_for_one:z)
        = outcome (fun () ->
              R.Sqrt_price_math.get_next_sqrt_price_from_output ~sqrt_price:p ~liquidity:l
                ~amount_out:a ~zero_for_one:z));
    prop "amount0 delta = oracle" gen (fun (sa, sb, l, _, (round_up, which)) ->
        into which (sa, l, sb) (fun ~dst sqrt_a liquidity sqrt_b ->
            Sqrt_price_math.get_amount0_delta_into math ~dst ~sqrt_a ~sqrt_b ~liquidity ~round_up)
        = outcome (fun () ->
              R.Sqrt_price_math.get_amount0_delta ~sqrt_a:sa ~sqrt_b:sb ~liquidity:l ~round_up));
    prop "amount1 delta = oracle" gen (fun (sa, sb, l, _, (round_up, which)) ->
        into which (sa, l, sb) (fun ~dst sqrt_a liquidity sqrt_b ->
            Sqrt_price_math.get_amount1_delta_into math ~dst ~sqrt_a ~sqrt_b ~liquidity ~round_up)
        = outcome (fun () ->
              R.Sqrt_price_math.get_amount1_delta ~sqrt_a:sa ~sqrt_b:sb ~liquidity:l ~round_up));
    prop "immutable wrappers = oracle" gen (fun (sa, sb, l, a, (z, _)) ->
        outcome (fun () ->
            Sqrt_price_math.get_next_sqrt_price_from_amount0_rounding_up ~sqrt_price:sa
              ~liquidity:l ~amount:a ~add:z)
        = outcome (fun () ->
              R.Sqrt_price_math.get_next_sqrt_price_from_amount0_rounding_up ~sqrt_price:sa
                ~liquidity:l ~amount:a ~add:z)
        && outcome (fun () ->
               Sqrt_price_math.get_amount0_delta ~sqrt_a:sa ~sqrt_b:sb ~liquidity:l ~round_up:z)
           = outcome (fun () ->
                 R.Sqrt_price_math.get_amount0_delta ~sqrt_a:sa ~sqrt_b:sb ~liquidity:l
                   ~round_up:z));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:2000 ~name:"in-place step = oracle step" ~print:show_step_case
         gen_step (fun (current, target, liquidity, exact_in, amount, fee) ->
           step_into ~current ~target ~liquidity ~exact_in ~amount ~fee
           = step_ref ~current ~target ~liquidity ~exact_in ~amount ~fee));
    prop "immutable step = oracle step" gen_step
      (fun (current, target, liquidity, exact_in, amount, fee) ->
        let amount_remaining =
          if exact_in then Swap_math.Exact_in amount else Swap_math.Exact_out amount
        in
        (match
           Swap_math.compute_swap_step ~sqrt_price_current:current ~sqrt_price_target:target
             ~liquidity ~amount_remaining ~fee_pips:fee
         with
        | r -> Ok (show_step r)
        | exception e -> Error (Printexc.to_string e))
        = step_ref ~current ~target ~liquidity ~exact_in ~amount ~fee) ]

(* The rare paths, each pinned by one case the random ones may miss. *)
let test_step_rare_paths () =
  let check name ~current ~target ~liquidity ~exact_in ~amount ~fee =
    Alcotest.(check (result string string))
      name
      (step_ref ~current ~target ~liquidity ~exact_in ~amount ~fee)
      (step_into ~current ~target ~liquidity ~exact_in ~amount ~fee)
  in
  (* amount * price overflows 256 bits, yet stays short of the target:
     get_next_sqrt_price_from_amount0_rounding_up's division-first
     fallback. *)
  let amount = U256.shift_left U256.one 170 and liquidity = U256.shift_left U256.one 120 in
  Alcotest.check_raises "product overflows" U256.Overflow (fun () ->
      ignore (U256.checked_mul amount price_1));
  check "checked_mul fallback" ~current:price_1 ~target:Tick_math.min_sqrt_ratio ~liquidity
    ~exact_in:true ~amount ~fee:3000;
  Alcotest.(check bool) "short of the target" true
    (U256.gt step_regs.Swap_math.sqrt_price_next Tick_math.min_sqrt_ratio);
  (* Exact-out short of the target: the output rounds past the request
     and is capped to it. *)
  let amount = u "1000000000000000000" in
  check "exact-out cap" ~current:price_1
    ~target:(Tick_math.get_sqrt_ratio_at_tick (-60000))
    ~liquidity:liquidity_1e21 ~exact_in:false ~amount ~fee:3000;
  Alcotest.check check_u256 "capped to the request" amount step_regs.Swap_math.amount_out;
  check "zero liquidity" ~current:price_1 ~target:(Tick_math.get_sqrt_ratio_at_tick 600)
    ~liquidity:U256.zero ~exact_in:true ~amount ~fee:3000;
  check "whole fee: the fee branch divides by zero" ~current:price_1
    ~target:(Tick_math.get_sqrt_ratio_at_tick (-600))
    ~liquidity:liquidity_1e21 ~exact_in:false ~amount ~fee:1_000_000;
  check "fee past the denominator" ~current:price_1 ~target:Tick_math.min_sqrt_ratio
    ~liquidity:liquidity_1e21 ~exact_in:true ~amount ~fee:1_000_001

(* Minor-heap words per call, averaged over 1 000 calls after a warm-up. *)
let words_per_call f =
  let n = 1_000 in
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  Float.round ((Gc.minor_words () -. before) /. float n)

let test_step_allocation () =
  (* Wide values: every mul_div takes the 512-bit path. *)
  let liquidity = u "123456789012345678901234567890" in
  let amount = u "98765432109876543210987654321" in
  List.iter
    (fun (name, target, exact_in) ->
      Alcotest.(check (float 0.))
        name 0.
        (words_per_call (fun () ->
             Swap_math.compute_swap_step_into step_scratch ~dst:step_regs
               ~sqrt_price_current:price_1 ~sqrt_price_target:target ~liquidity ~exact_in
               ~amount_remaining:amount ~fee_pips:3000)))
    [ ("exact in, 0 -> 1", Tick_math.get_sqrt_ratio_at_tick (-60000), true);
      ("exact in, 1 -> 0", Tick_math.get_sqrt_ratio_at_tick 60000, true);
      ("exact out, 0 -> 1", Tick_math.get_sqrt_ratio_at_tick (-60000), false);
      ("exact out, 1 -> 0", Tick_math.get_sqrt_ratio_at_tick 60000, false);
      ("reaches target", Tick_math.get_sqrt_ratio_at_tick (-1), true) ]

let test_memo_hit_allocation () =
  Alcotest.(check (float 0.))
    "ratio at a cached tick" 0.
    (words_per_call (fun () -> Tick_math.get_sqrt_ratio_at_tick 123456));
  let ratio = Tick_math.get_sqrt_ratio_at_tick (-4567) in
  Alcotest.(check (float 0.))
    "tick at a ratio whose search path is cached" 0.
    (words_per_call (fun () -> Tick_math.get_tick_at_sqrt_ratio ratio))

let () =
  Alcotest.run "amm_math"
    [ ( "tick_math",
        [ Alcotest.test_case "endpoints" `Quick test_tick_endpoints;
          Alcotest.test_case "out of range" `Quick test_tick_out_of_range;
          Alcotest.test_case "float cross-check" `Quick test_tick_float_crosscheck;
          Alcotest.test_case "inverse roundtrip" `Quick test_tick_inverse_roundtrip;
          Alcotest.test_case "memo matches uncached" `Quick
            test_tick_memo_matches_uncached ]
        @ tick_props );
      ( "sqrt_price_math",
        [ Alcotest.test_case "input directions" `Quick test_next_price_from_input_directions;
          Alcotest.test_case "zero amount" `Quick test_next_price_zero_amount;
          Alcotest.test_case "amount0 delta symmetry" `Quick test_amount_deltas_symmetry;
          Alcotest.test_case "amount1 delta exact" `Quick test_amount1_delta_exact;
          Alcotest.test_case "impossible output raises" `Quick
            test_output_exceeding_reserves_raises ]
        @ sqrt_price_props );
      ( "swap_math",
        [ Alcotest.test_case "exact-in partial" `Quick test_swap_step_exact_in_partial;
          Alcotest.test_case "exact-in reaches target" `Quick
            test_swap_step_exact_in_reaches_target;
          Alcotest.test_case "exact-out" `Quick test_swap_step_exact_out;
          Alcotest.test_case "zero fee" `Quick test_swap_step_zero_fee;
          Alcotest.test_case "zero liquidity" `Quick test_swap_step_zero_liquidity_jumps_to_target;
          Alcotest.test_case "fee monotone" `Quick test_swap_step_fee_monotone_in_fee_pips ]
        @ swap_props );
      ( "in place math",
        [ Alcotest.test_case "rare paths" `Quick test_step_rare_paths;
          Alcotest.test_case "step allocates nothing" `Quick test_step_allocation;
          Alcotest.test_case "memo hit allocates nothing" `Quick test_memo_hit_allocation ]
        @ formula_props );
      ( "liquidity_math",
        [ Alcotest.test_case "amounts in range" `Quick test_liquidity_for_amounts_in_range;
          Alcotest.test_case "one-sided range" `Quick test_liquidity_one_sided;
          Alcotest.test_case "apply delta" `Quick test_apply_delta ]
        @ liquidity_props ) ]
