(* Port of Uniswap V3's TickMath. get_sqrt_ratio_at_tick multiplies together
   precomputed Q128.128 factors sqrt(1.0001)^(-2^k) selected by the bits of
   |tick|; get_tick_at_sqrt_ratio inverts it by binary search (the function
   is strictly monotonic, so 20 probes suffice and keep the code free of the
   Solidity bit-twiddling log2 approximation). *)

let min_tick = -887272
let max_tick = 887272

let min_sqrt_ratio = U256.of_string "4295128739"
let max_sqrt_ratio = U256.of_string "1461446703485210103287273052203988822378723970342"

(* factors.(k) = round(2^128 / sqrt(1.0001)^(2^k)) — the constants from
   TickMath.sol. factor for bit 0 applies when |tick| is odd, etc. *)
let factors =
  [| "0xfffcb933bd6fad37aa2d162d1a594001";
     "0xfff97272373d413259a46990580e213a";
     "0xfff2e50f5f656932ef12357cf3c7fdcc";
     "0xffe5caca7e10e4e61c3624eaa0941cd0";
     "0xffcb9843d60f6159c9db58835c926644";
     "0xff973b41fa98c081472e6896dfb254c0";
     "0xff2ea16466c96a3843ec78b326b52861";
     "0xfe5dee046a99a2a811c461f1969c3053";
     "0xfcbe86c7900a88aedcffc83b479aa3a4";
     "0xf987a7253ac413176f2b074cf7815e54";
     "0xf3392b0822b70005940c7a398e4b70f3";
     "0xe7159475a2c29b7443b29c7fa6e889d9";
     "0xd097f3bdfd2022b8845ad8f792aa5825";
     "0xa9f746462d870fdf8a65dc1f90e061e5";
     "0x70d869a156d2a1b890bb3df62baf32f7";
     "0x31be135f97d08fd981231505542fcfa6";
     "0x9aa508b5b7a84e1c677de54f3e99bc9";
     "0x5d6af8dedb81196699c329225ee604";
     "0x2216e584f5fa1ea926041bedfe98";
     "0x48a170391f7dc42444e8fa2" |]
  |> Array.map U256.of_hex

let get_sqrt_ratio_at_tick_uncached tick =
  if tick < min_tick || tick > max_tick then
    invalid_arg (Printf.sprintf "Tick_math.get_sqrt_ratio_at_tick: tick %d out of range" tick);
  let abs_tick = abs tick in
  let ratio = ref (if abs_tick land 1 <> 0 then factors.(0) else Q96.q128) in
  for k = 1 to 19 do
    if abs_tick land (1 lsl k) <> 0 then
      ratio := U256.shift_right (U256.mul !ratio factors.(k)) 128
  done;
  if tick > 0 then ratio := U256.div U256.max_value !ratio;
  (* Convert Q128.128 to Q64.96, rounding up so that
     get_tick_at_sqrt_ratio(get_sqrt_ratio_at_tick(t)) = t. *)
  let shifted = U256.shift_right !ratio 32 in
  let low_bits = U256.logand !ratio (U256.sub (U256.shift_left U256.one 32) U256.one) in
  if U256.is_zero low_bits then shifted else U256.add shifted U256.one

(* Swap traffic revisits a narrow tick band over and over (and the binary
   search in [get_tick_at_sqrt_ratio] recomputes ~20 ratios per call), so
   the 20-multiply derivation above is worth caching. The memo table is
   domain-local — parallel experiment cells each fill their own — and
   bounded: if a scan ever touches more than [memo_cap] distinct ticks the
   table resets rather than holding 1.7M boxed ratios. Cached values are
   shared, never mutated (see the U256 in-place API contract). *)
let memo_cap = 1 lsl 17

let memo_key : (int, U256.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

(* A hit allocates nothing: [Hashtbl.find] returns the shared ratio
   itself where [find_opt] would box it in a [Some], and
   [get_tick_at_sqrt_ratio] probes about 21 ticks per call. *)
let get_sqrt_ratio_at_tick tick =
  let tbl = Domain.DLS.get memo_key in
  match Hashtbl.find tbl tick with
  | ratio -> ratio
  | exception Not_found ->
    let ratio = get_sqrt_ratio_at_tick_uncached tick in
    if Hashtbl.length tbl >= memo_cap then Hashtbl.reset tbl;
    Hashtbl.add tbl tick ratio;
    ratio

let get_tick_at_sqrt_ratio sqrt_ratio =
  if U256.lt sqrt_ratio min_sqrt_ratio || U256.ge sqrt_ratio max_sqrt_ratio then
    invalid_arg "Tick_math.get_tick_at_sqrt_ratio: ratio out of range";
  (* Invariant: ratio(lo) <= sqrt_ratio < ratio(hi + 1); answer is the
     greatest tick whose ratio does not exceed sqrt_ratio. *)
  let lo = ref min_tick and hi = ref max_tick in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo + 1) / 2) in  (* upper mid so the loop terminates *)
    if U256.le (get_sqrt_ratio_at_tick mid) sqrt_ratio then lo := mid else hi := mid - 1
  done;
  !lo
