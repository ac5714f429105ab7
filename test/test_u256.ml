(* Unit and property tests for the from-scratch 256-bit integers and the
   sign-magnitude layer on top. *)

open Amm_math

let u = U256.of_string

let check_u256 = Alcotest.testable U256.pp U256.equal

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Random values across the whole range: a random bit-width keeps small
   and huge magnitudes equally likely. *)
let gen_u256 =
  QCheck2.Gen.(
    let* width = int_range 0 255 in
    let* a = int_range 0 max_int in
    let* b = int_range 0 max_int in
    let base = U256.logor (U256.of_int a) (U256.shift_left (U256.of_int b) 62) in
    let masked = U256.rem base (U256.shift_left U256.one width) in
    return (if U256.is_zero masked then U256.of_int (a land 0xFFFF) else masked))

let gen_nonzero = QCheck2.Gen.map (fun x -> U256.add x U256.one) gen_u256

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_constants () =
  Alcotest.(check string) "zero" "0" (U256.to_string U256.zero);
  Alcotest.(check string) "one" "1" (U256.to_string U256.one);
  Alcotest.(check string) "max"
    "115792089237316195423570985008687907853269984665640564039457584007913129639935"
    (U256.to_string U256.max_value)

let test_of_string_roundtrip () =
  let cases =
    [ "0"; "1"; "42"; "65535"; "65536"; "18446744073709551615";
      "340282366920938463463374607431768211456";
      "115792089237316195423570985008687907853269984665640564039457584007913129639935" ]
  in
  List.iter (fun s -> Alcotest.(check string) s s (U256.to_string (u s))) cases

let test_hex () =
  Alcotest.(check string) "hex" "deadbeef" (U256.to_hex (u "0xdeadbeef"));
  Alcotest.check check_u256 "hex value" (U256.of_int 0xdeadbeef) (u "0xDEADBEEF");
  Alcotest.(check string) "zero hex" "0" (U256.to_hex U256.zero)

let test_add_carry_chain () =
  (* 2^256 - 1 + 1 wraps to 0 through sixteen digit carries. *)
  Alcotest.check check_u256 "wrap" U256.zero (U256.add U256.max_value U256.one);
  Alcotest.check_raises "checked overflow" U256.Overflow (fun () ->
      ignore (U256.checked_add U256.max_value U256.one))

let test_sub_borrow_chain () =
  let x = U256.shift_left U256.one 128 in
  Alcotest.(check string) "borrow chain" "340282366920938463463374607431768211455"
    (U256.to_string (U256.sub x U256.one));
  Alcotest.check_raises "checked underflow" U256.Overflow (fun () ->
      ignore (U256.checked_sub U256.zero U256.one))

let test_mul_known () =
  Alcotest.(check string) "mul"
    "121932631356500531591068431581771069347203169112635269"
    (U256.to_string
       (U256.mul (u "123456789123456789123456789") (u "987654321987654321987654321")));
  Alcotest.check_raises "checked mul overflow" U256.Overflow (fun () ->
      ignore (U256.checked_mul U256.max_value (U256.of_int 2)))

let test_div_known () =
  let q, r = U256.divmod (u "1000000000000000000000000000000") (u "7777777777777") in
  Alcotest.(check string) "quotient" "128571428571441428" (U256.to_string q);
  Alcotest.(check string) "remainder" "4444444454444" (U256.to_string r);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (U256.div U256.one U256.zero))

let test_div_normalization_edge () =
  (* Divisors with a high leading digit exercise the Knuth-D qhat
     correction path. *)
  let a = u "0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff" in
  let b = u "0xffffffff00000000ffffffff" in
  let q, r = U256.divmod a b in
  Alcotest.check check_u256 "identity" a (U256.add (U256.mul q b) r);
  Alcotest.(check bool) "r < b" true (U256.lt r b)

let test_mul_div () =
  (* floor(a*b/c) where a*b overflows 256 bits. *)
  let a = U256.shift_left U256.one 200 in
  let b = U256.shift_left U256.one 100 in
  let c = U256.shift_left U256.one 60 in
  Alcotest.check check_u256 "muldiv 512-bit" (U256.shift_left U256.one 240)
    (U256.mul_div a b c);
  Alcotest.check_raises "muldiv overflow" U256.Overflow (fun () ->
      ignore (U256.mul_div U256.max_value U256.max_value U256.one))

let test_mul_div_rounding () =
  Alcotest.check check_u256 "exact" (U256.of_int 6)
    (U256.mul_div_rounding_up (U256.of_int 4) (U256.of_int 3) (U256.of_int 2));
  Alcotest.check check_u256 "rounds up" (U256.of_int 7)
    (U256.mul_div_rounding_up (U256.of_int 13) U256.one (U256.of_int 2));
  Alcotest.check check_u256 "floor" (U256.of_int 6)
    (U256.mul_div (U256.of_int 13) U256.one (U256.of_int 2))

let test_shifts () =
  let x = u "0x123456789abcdef" in
  Alcotest.check check_u256 "left-right" x (U256.shift_right (U256.shift_left x 137) 137);
  Alcotest.check check_u256 "shift out" U256.zero (U256.shift_left x 256);
  Alcotest.check check_u256 "right out" U256.zero (U256.shift_right x 256)

let test_bits () =
  Alcotest.(check int) "bits 0" 0 (U256.bits U256.zero);
  Alcotest.(check int) "bits 1" 1 (U256.bits U256.one);
  Alcotest.(check int) "bits 2^255" 256 (U256.bits (U256.shift_left U256.one 255));
  Alcotest.(check bool) "bit test" true (U256.bit (U256.shift_left U256.one 93) 93)

let test_sqrt_known () =
  Alcotest.check check_u256 "sqrt(10^40)" (U256.pow (U256.of_int 10) 20)
    (U256.sqrt (U256.pow (U256.of_int 10) 40));
  Alcotest.check check_u256 "sqrt 0" U256.zero (U256.sqrt U256.zero);
  Alcotest.check check_u256 "sqrt 3" U256.one (U256.sqrt (U256.of_int 3))

let test_bytes_be () =
  let x = u "0x0102030405" in
  let b = U256.to_bytes_be x in
  Alcotest.(check int) "length" 32 (Bytes.length b);
  Alcotest.(check char) "last byte" '\x05' (Bytes.get b 31);
  Alcotest.check check_u256 "roundtrip" x (U256.of_bytes_be b);
  Alcotest.check check_u256 "short input" (U256.of_int 0x0102)
    (U256.of_bytes_be (Bytes.of_string "\x01\x02"))

let test_mul_mod () =
  let p = u "21888242871839275222246405745257275088548364400416034343698204186575808495617" in
  let a = U256.sub p U256.one in
  (* (p-1)^2 mod p = 1 *)
  Alcotest.check check_u256 "fermat square" U256.one (U256.mul_mod a a p)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let pair = QCheck2.Gen.pair gen_u256 gen_u256

let props =
  [ prop "add commutative" pair (fun (a, b) -> U256.equal (U256.add a b) (U256.add b a));
    prop "add associative" (QCheck2.Gen.triple gen_u256 gen_u256 gen_u256)
      (fun (a, b, c) ->
        U256.equal (U256.add (U256.add a b) c) (U256.add a (U256.add b c)));
    prop "mul commutative" pair (fun (a, b) -> U256.equal (U256.mul a b) (U256.mul b a));
    prop "distributivity" (QCheck2.Gen.triple gen_u256 gen_u256 gen_u256)
      (fun (a, b, c) ->
        U256.equal (U256.mul a (U256.add b c)) (U256.add (U256.mul a b) (U256.mul a c)));
    prop "sub inverse of add" pair (fun (a, b) -> U256.equal (U256.sub (U256.add a b) b) a);
    prop "division identity" (QCheck2.Gen.pair gen_u256 gen_nonzero) (fun (a, b) ->
        let q, r = U256.divmod a b in
        U256.equal a (U256.add (U256.mul q b) r) && U256.lt r b);
    prop "mul_div vs divmod when in range" (QCheck2.Gen.pair gen_u256 gen_nonzero)
      (fun (a, b) -> U256.equal (U256.mul_div a b b) a);
    prop "mul_mod matches divmod" (QCheck2.Gen.triple gen_u256 gen_u256 gen_nonzero)
      (fun (a, b, c) ->
        let p = U256.mul_mod a b c in
        U256.lt p c);
    prop "decimal roundtrip" gen_u256 (fun a ->
        U256.equal a (U256.of_string (U256.to_string a)));
    prop "hex roundtrip" gen_u256 (fun a -> U256.equal a (U256.of_hex (U256.to_hex a)));
    prop "bytes roundtrip" gen_u256 (fun a ->
        U256.equal a (U256.of_bytes_be (U256.to_bytes_be a)));
    prop "sqrt bounds" gen_u256 (fun a ->
        let s = U256.sqrt a in
        U256.le (U256.mul s s) a
        && (U256.equal s U256.max_value
           || U256.gt (U256.mul (U256.add s U256.one) (U256.add s U256.one)) a
           || U256.lt (U256.mul (U256.add s U256.one) (U256.add s U256.one)) s));
    prop "compare antisymmetric" pair (fun (a, b) ->
        U256.compare a b = -U256.compare b a);
    prop "shift_left is mul by 2^k"
      QCheck2.Gen.(pair gen_u256 (int_range 0 64))
      (fun (a, k) ->
        U256.equal (U256.shift_left a k) (U256.mul a (U256.pow U256.two k)));
    prop "logical ops involution" pair (fun (a, b) ->
        U256.equal (U256.logxor (U256.logxor a b) b) a
        && U256.equal (U256.lognot (U256.lognot a)) a);
    prop "ceil - floor division is 0 or 1"
      (QCheck2.Gen.triple gen_u256 gen_u256 gen_nonzero)
      (fun (a, b, c) ->
        match U256.mul_div_rounding_up a b c with
        | up ->
          let down = U256.mul_div a b c in
          let diff = U256.sub up down in
          U256.is_zero diff || U256.equal diff U256.one
        | exception U256.Overflow -> true);
    prop "to_float monotone" pair (fun (a, b) ->
        let fa = U256.to_float a and fb = U256.to_float b in
        if U256.le a b then fa <= fb else fa >= fb) ]

(* ------------------------------------------------------------------ *)
(* Destination-passing variants and mul_div fast paths                  *)
(* ------------------------------------------------------------------ *)

(* Every in-place operation must agree with its allocating counterpart,
   including at the representation boundaries and under the aliasing
   patterns the interface allows. *)

let boundary_values =
  [ U256.zero; U256.one; U256.two; U256.max_value; U256.of_int 65535;
    U256.of_int 65536; U256.of_int max_int;
    U256.shift_left U256.one 128;
    U256.sub (U256.shift_left U256.one 128) U256.one ]

let test_into_boundaries () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let dst = U256.scratch () in
          U256.add_into ~dst a b;
          Alcotest.check check_u256 "add_into" (U256.add a b) dst;
          U256.sub_into ~dst a b;
          Alcotest.check check_u256 "sub_into" (U256.sub a b) dst;
          U256.mul_into ~dst a b;
          Alcotest.check check_u256 "mul_into" (U256.mul a b) dst)
        boundary_values)
    boundary_values

let test_into_aliasing () =
  let a = u "123456789123456789123456789123456789123456789" in
  let b = u "987654321987654321987654321987654321" in
  (* dst == first operand *)
  let c = U256.copy a in
  U256.add_into ~dst:c c b;
  Alcotest.check check_u256 "add dst==a" (U256.add a b) c;
  (* dst == second operand *)
  let c = U256.copy b in
  U256.add_into ~dst:c a c;
  Alcotest.check check_u256 "add dst==b" (U256.add a b) c;
  (* dst == both operands *)
  let c = U256.copy a in
  U256.add_into ~dst:c c c;
  Alcotest.check check_u256 "add dst==a==b" (U256.add a a) c;
  let c = U256.copy a in
  U256.sub_into ~dst:c c b;
  Alcotest.check check_u256 "sub dst==a" (U256.sub a b) c;
  let c = U256.copy b in
  U256.sub_into ~dst:c a c;
  Alcotest.check check_u256 "sub dst==b" (U256.sub a b) c;
  (* mul_into rejects aliasing (the product accumulates in place) *)
  let c = U256.copy a in
  Alcotest.check_raises "mul dst==a"
    (Invalid_argument "U256.mul_into: dst aliases an input") (fun () ->
      U256.mul_into ~dst:c c b)

let test_mul_div_fast_paths () =
  (* b == c short-circuit: a * b / b = a without touching the 512-bit
     path, but division by zero must still raise. *)
  let b = u "987654321987654321987654321987654321" in
  Alcotest.check check_u256 "b==c" U256.max_value (U256.mul_div U256.max_value b b);
  Alcotest.check_raises "b==c zero" Division_by_zero (fun () ->
      ignore (U256.mul_div U256.one U256.zero U256.zero));
  (* Small-operand path: everything fits in a native int. *)
  Alcotest.check check_u256 "small floor" (U256.of_int ((12345 * 6789) / 997))
    (U256.mul_div (U256.of_int 12345) (U256.of_int 6789) (U256.of_int 997));
  Alcotest.check check_u256 "small ceil"
    (U256.of_int (((12345 * 6789) + 996) / 997))
    (U256.mul_div_rounding_up (U256.of_int 12345) (U256.of_int 6789)
       (U256.of_int 997));
  (* Small product, huge divisor: quotient 0 (and 1 when rounding up). *)
  let huge = U256.shift_left U256.one 200 in
  Alcotest.check check_u256 "huge divisor floor" U256.zero
    (U256.mul_div (U256.of_int 12345) (U256.of_int 6789) huge);
  Alcotest.check check_u256 "huge divisor ceil" U256.one
    (U256.mul_div_rounding_up (U256.of_int 12345) (U256.of_int 6789) huge)

let gen_small_int = QCheck2.Gen.int_range 0 0x3FFFFFFF (* ~2^30: products fit *)

let into_props =
  [ prop "add_into matches add" pair (fun (a, b) ->
        let dst = U256.scratch () in
        U256.add_into ~dst a b;
        U256.equal dst (U256.add a b));
    prop "sub_into matches sub" pair (fun (a, b) ->
        let dst = U256.scratch () in
        U256.sub_into ~dst a b;
        U256.equal dst (U256.sub a b));
    prop "mul_into matches mul" pair (fun (a, b) ->
        let dst = U256.scratch () in
        U256.mul_into ~dst a b;
        U256.equal dst (U256.mul a b));
    prop "add_into aliased matches add" pair (fun (a, b) ->
        let c = U256.copy a in
        U256.add_into ~dst:c c b;
        U256.equal c (U256.add a b));
    prop "sub_into aliased matches sub" pair (fun (a, b) ->
        let c = U256.copy b in
        U256.sub_into ~dst:c a c;
        U256.equal c (U256.sub a b));
    prop "mul_div small operands exact"
      QCheck2.Gen.(triple gen_small_int gen_small_int (int_range 1 0x3FFFFFFF))
      (fun (a, b, c) ->
        let p = a * b in
        let floor = p / c in
        let ceil = if p mod c = 0 then floor else floor + 1 in
        U256.equal
          (U256.mul_div (U256.of_int a) (U256.of_int b) (U256.of_int c))
          (U256.of_int floor)
        && U256.equal
             (U256.mul_div_rounding_up (U256.of_int a) (U256.of_int b)
                (U256.of_int c))
             (U256.of_int ceil)) ]

(* ------------------------------------------------------------------ *)
(* Signed values                                                       *)
(* ------------------------------------------------------------------ *)

let check_signed = Alcotest.testable Signed.pp Signed.equal

let test_signed_basics () =
  Alcotest.check check_signed "neg neg" (Signed.of_int 5) (Signed.neg (Signed.of_int (-5)));
  Alcotest.check check_signed "add mixed" (Signed.of_int (-2))
    (Signed.add (Signed.of_int 3) (Signed.of_int (-5)));
  Alcotest.check check_signed "sub" (Signed.of_int 8)
    (Signed.sub (Signed.of_int 3) (Signed.of_int (-5)));
  Alcotest.(check bool) "zero not negative" false
    (Signed.is_negative (Signed.add (Signed.of_int 5) (Signed.of_int (-5))))

let test_signed_apply () =
  Alcotest.check check_u256 "apply pos" (U256.of_int 15)
    (Signed.apply (U256.of_int 10) (Signed.of_int 5));
  Alcotest.check check_u256 "apply neg" (U256.of_int 5)
    (Signed.apply (U256.of_int 10) (Signed.of_int (-5)));
  Alcotest.check_raises "apply below zero" U256.Overflow (fun () ->
      ignore (Signed.apply (U256.of_int 1) (Signed.of_int (-2))))

let signed_gen =
  QCheck2.Gen.(
    map2 (fun v neg -> if neg then Signed.neg_of_u256 v else Signed.of_u256 v) gen_u256 bool)

(* ------------------------------------------------------------------ *)
(* Montgomery contexts                                                 *)
(* ------------------------------------------------------------------ *)

(* The BN254 scalar-field order, the modulus the crypto layer specialises
   for — plus random odd moduli to show the context isn't order-specific. *)
let bn254_order =
  u "21888242871839275222246405745257275088548364400416034343698204186575808495617"

let gen_odd_modulus =
  QCheck2.Gen.map
    (fun x -> U256.logor (U256.add x U256.two) U256.one)
    gen_u256

let mont_props =
  let mul_agrees ctx m (a, b) =
    let a = U256.rem a m and b = U256.rem b m in
    let expect = U256.mul_mod a b m in
    let got =
      U256.Mont.of_mont ctx
        (U256.Mont.mul ctx (U256.Mont.to_mont ctx a) (U256.Mont.to_mont ctx b))
    in
    U256.equal got expect
  in
  let bn_ctx = U256.Mont.create ~modulus:bn254_order in
  [ prop "mont roundtrip (bn254)" gen_u256 (fun x ->
        let x = U256.rem x bn254_order in
        U256.equal x (U256.Mont.of_mont bn_ctx (U256.Mont.to_mont bn_ctx x)));
    prop "mont mul = mul_mod (bn254)" pair (mul_agrees bn_ctx bn254_order);
    prop "mont mul = mul_mod (random odd modulus)"
      (QCheck2.Gen.triple gen_odd_modulus gen_u256 gen_u256)
      (fun (m, a, b) ->
        let ctx = U256.Mont.create ~modulus:m in
        mul_agrees ctx m (a, b));
    prop "mont one is the identity" gen_u256 (fun x ->
        let xm = U256.Mont.to_mont bn_ctx (U256.rem x bn254_order) in
        U256.equal xm (U256.Mont.mul bn_ctx xm (U256.Mont.one bn_ctx))) ]

let test_mont_edges () =
  let m = bn254_order in
  let ctx = U256.Mont.create ~modulus:m in
  let check a b =
    let expect = U256.mul_mod a b m in
    let got =
      U256.Mont.of_mont ctx
        (U256.Mont.mul ctx (U256.Mont.to_mont ctx a) (U256.Mont.to_mont ctx b))
    in
    Alcotest.check check_u256
      (Printf.sprintf "%s * %s" (U256.to_string a) (U256.to_string b))
      expect got
  in
  let pm1 = U256.sub m U256.one in
  List.iter
    (fun (a, b) -> check a b)
    [ (U256.zero, U256.zero); (U256.zero, pm1); (U256.one, U256.one);
      (U256.one, pm1); (pm1, pm1); (U256.two, pm1) ];
  Alcotest.check check_u256 "modulus accessor" m (U256.Mont.modulus ctx);
  Alcotest.check_raises "even modulus rejected"
    (Invalid_argument "U256.Mont.create: modulus must be odd") (fun () ->
      ignore (U256.Mont.create ~modulus:(U256.of_int 10)));
  Alcotest.check_raises "zero modulus rejected"
    (Invalid_argument "U256.Mont.create: modulus must be odd") (fun () ->
      ignore (U256.Mont.create ~modulus:U256.zero))

(* ------------------------------------------------------------------ *)
(* In-place big-endian I/O                                              *)
(* ------------------------------------------------------------------ *)

(* A buffer of 32..96 random bytes and an offset at which 32 bytes fit. *)
let gen_buf_off =
  QCheck2.Gen.(
    let* len = int_range 32 96 in
    let* buf = bytes_size (return len) in
    let* off = int_range 0 (len - 32) in
    return (buf, off))

let bytes_io_props =
  [ prop "read_be = of_bytes_be of the slice" gen_buf_off (fun (buf, off) ->
        U256.equal (U256.read_be buf off) (U256.of_bytes_be (Bytes.sub buf off 32)));
    prop "write_be = to_bytes_be, in place" (QCheck2.Gen.pair gen_u256 gen_buf_off)
      (fun (x, (buf, off)) ->
        let out = Bytes.copy buf in
        U256.write_be x out off;
        let len = Bytes.length buf in
        Bytes.equal (Bytes.sub out off 32) (U256.to_bytes_be x)
        && Bytes.equal (Bytes.sub out 0 off) (Bytes.sub buf 0 off)
        && Bytes.equal
             (Bytes.sub out (off + 32) (len - off - 32))
             (Bytes.sub buf (off + 32) (len - off - 32)));
    prop "read_be/write_be reject offsets out of range"
      QCheck2.Gen.(pair (int_range 0 64) (int_range (-40) 100))
      (fun (len, off) ->
        let buf = Bytes.make len '\x01' in
        let fits = off >= 0 && off + 32 <= len in
        let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
        raises (fun () -> U256.read_be buf off) = not fits
        && raises (fun () -> U256.write_be U256.max_value buf off) = not fits) ]

let signed_props =
  [ prop "signed add commutative" (QCheck2.Gen.pair signed_gen signed_gen) (fun (a, b) ->
        Signed.equal (Signed.add a b) (Signed.add b a));
    prop "signed sub self is zero" signed_gen (fun a -> Signed.is_zero (Signed.sub a a));
    prop "signed neg involution" signed_gen (fun a -> Signed.equal a (Signed.neg (Signed.neg a))) ]

(* ------------------------------------------------------------------ *)
(* Differential oracle: the sixteen-digit reference                     *)
(* ------------------------------------------------------------------ *)

(* Every function of u256.mli against [Ref_u256], the earlier
   implementation over sixteen 16-bit digits: the same bytes out and the
   same exception. Values cross between the two as big-endian bytes. *)

module R = Ref_u256

let of_ref r = U256.of_bytes_be (R.to_bytes_be r)
let ub x = Bytes.to_string (U256.to_bytes_be x)
let rb x = Bytes.to_string (R.to_bytes_be x)

(* The limb edges of both radices, 2^(16k) and 2^(29k) each +-1, the
   native-int and top-limb boundaries, and the largest values. *)
let edge_values =
  let pow2 k = R.shift_left R.one k in
  let around k = [ R.sub (pow2 k) R.one; pow2 k; R.add (pow2 k) R.one ] in
  let range n f = List.concat_map (fun k -> around (f (k + 1))) (List.init n Fun.id) in
  [ R.zero; R.one; R.two; R.max_value; R.sub R.zero (pow2 232) ]
  @ range 15 (fun k -> 16 * k)
  @ range 8 (fun k -> 29 * k)
  @ around 53 @ around 62 @ around 232 @ around 255

let gen_ref =
  let open QCheck2.Gen in
  let random_width =
    let* width = int_range 0 256 in
    let* raw = bytes_size (return 32) in
    let v = R.of_bytes_be raw in
    return (if width = 256 then v else R.logand v (R.sub (R.shift_left R.one width) R.one))
  in
  (* Digits of either radix drawn from the values around their edges:
     these reach Knuth's rare add-back step and every carry chain. *)
  let limb_pattern =
    let* width = oneofl [ 16; 29 ] in
    let half = 1 lsl (width - 1) in
    let digit =
      oneof
        [ oneofl [ 0; 1; half - 1; half; (2 * half) - 2; (2 * half) - 1 ];
          int_range 0 ((2 * half) - 1) ]
    in
    let* digits = list_size (int_range 1 ((256 + width - 1) / width)) digit in
    return
      (List.fold_left
         (fun acc d -> R.logor (R.shift_left acc width) (R.of_int d))
         R.zero digits)
  in
  let edge = oneofl edge_values in
  frequency
    [ (3, edge);
      (3, random_width);
      (3, limb_pattern);
      (* e + d modulo 2^256, for |d| <= 3 *)
      (2, map2 (fun e d -> R.sub (R.add e (R.of_int (d + 3))) (R.of_int 3)) edge (int_range (-3) 3));
      (2, map2 R.logxor edge random_width) ]

let gen_ref2 = QCheck2.Gen.pair gen_ref gen_ref
let gen_ref3 = QCheck2.Gen.triple gen_ref gen_ref gen_ref
let print1 = R.to_hex
let print2 (a, b) = Printf.sprintf "(0x%s, 0x%s)" (R.to_hex a) (R.to_hex b)
let print3 (a, b, c) = Printf.sprintf "(0x%s, 0x%s, 0x%s)" (R.to_hex a) (R.to_hex b) (R.to_hex c)

let outcome f =
  match f () with
  | v -> Ok v
  | exception (U256.Overflow | R.Overflow) -> Error "Overflow"
  | exception Invalid_argument m -> Error ("Invalid_argument " ^ m)
  | exception Division_by_zero -> Error "Division_by_zero"

let oracle name gen print f_new f_ref =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name ~print gen (fun x ->
         outcome (fun () -> f_new x) = outcome (fun () -> f_ref x)))

let un f x = ub (f (of_ref x))
let bin f (a, b) = ub (f (of_ref a) (of_ref b))
let rbin f (a, b) = rb (f a b)

let test_oracle_constants () =
  List.iter
    (fun (name, x, r) -> Alcotest.(check string) name (rb r) (ub x))
    [ ("zero", U256.zero, R.zero); ("one", U256.one, R.one); ("two", U256.two, R.two);
      ("max_value", U256.max_value, R.max_value); ("scratch", U256.scratch (), R.scratch ()) ]

let oracle_values =
  [ oracle "to_string/pp" gen_ref print1
      (fun x -> U256.to_string (of_ref x) ^ Format.asprintf "|%a" U256.pp (of_ref x))
      (fun x -> R.to_string x ^ Format.asprintf "|%a" R.pp x);
    oracle "to_hex/pp_hex" gen_ref print1
      (fun x -> U256.to_hex (of_ref x) ^ Format.asprintf "|%a" U256.pp_hex (of_ref x))
      (fun x -> R.to_hex x ^ Format.asprintf "|%a" R.pp_hex x);
    oracle "of_string/of_hex of rendered values" gen_ref print1
      (fun x ->
        ub (U256.of_string (R.to_string x)) ^ ub (U256.of_string ("0x" ^ R.to_hex x))
        ^ ub (U256.of_hex (R.to_hex x)))
      (fun x ->
        rb (R.of_string (R.to_string x)) ^ rb (R.of_string ("0x" ^ R.to_hex x))
        ^ rb (R.of_hex (R.to_hex x)));
    oracle "of_string/of_hex of arbitrary strings"
      QCheck2.Gen.(
        let digits = oneofl [ "0"; "9"; "00000"; "99999999999"; "fF"; "x"; "0x"; "g"; " "; "-" ] in
        map (String.concat "") (list_size (int_range 0 12) digits))
      Fun.id
      (fun s -> ub (U256.of_string s) ^ "|" ^ (try ub (U256.of_hex s) with Invalid_argument m -> m))
      (fun s -> rb (R.of_string s) ^ "|" ^ (try rb (R.of_hex s) with Invalid_argument m -> m));
    oracle "to_int_opt/to_int" gen_ref print1
      (fun x ->
        let u = of_ref x in
        (match U256.to_int_opt u with Some n -> string_of_int n | None -> "none")
        ^ string_of_int (U256.to_int u))
      (fun x ->
        (match R.to_int_opt x with Some n -> string_of_int n | None -> "none")
        ^ string_of_int (R.to_int x));
    oracle "to_float" gen_ref print1
      (fun x -> Int64.to_string (Int64.bits_of_float (U256.to_float (of_ref x))))
      (fun x -> Int64.to_string (Int64.bits_of_float (R.to_float x)));
    oracle "of_int"
      QCheck2.Gen.(
        oneof
          [ int;
            oneofl [ 0; 1; -1; max_int; min_int; 65535; 65536; (1 lsl 29) - 1; 1 lsl 29; 1 lsl 58 ] ])
      string_of_int
      (fun n -> ub (U256.of_int n))
      (fun n -> rb (R.of_int n));
    oracle "of_int64"
      QCheck2.Gen.(
        oneof
          [ int64; oneofl [ 0L; -1L; Int64.max_int; Int64.min_int; 0x1FFFFFFFL; 0x20000000L ] ])
      Int64.to_string
      (fun n -> ub (U256.of_int64 n))
      (fun n -> rb (R.of_int64 n));
    oracle "of_bytes_be" QCheck2.Gen.(bytes_size (int_range 0 40)) Bytes.to_string
      (fun b -> ub (U256.of_bytes_be b))
      (fun b -> rb (R.of_bytes_be b));
    oracle "is_zero/bits/copy" gen_ref print1
      (fun x ->
        let u = of_ref x in
        Printf.sprintf "%b %d %s" (U256.is_zero u) (U256.bits u) (ub (U256.copy u)))
      (fun x -> Printf.sprintf "%b %d %s" (R.is_zero x) (R.bits x) (rb (R.copy x)));
    oracle "sqrt" gen_ref print1 (un U256.sqrt) (fun x -> rb (R.sqrt x));
    oracle "lognot" gen_ref print1 (un U256.lognot) (fun x -> rb (R.lognot x)) ]

let oracle_pairs =
  [ oracle "compare family" gen_ref2 print2
      (fun (a, b) ->
        let a = of_ref a and b = of_ref b in
        Printf.sprintf "%d %b %b %b %b %b %s %s" (U256.compare a b) (U256.equal a b)
          (U256.lt a b) (U256.le a b) (U256.gt a b) (U256.ge a b) (ub (U256.min a b))
          (ub (U256.max a b)))
      (fun (a, b) ->
        Printf.sprintf "%d %b %b %b %b %b %s %s" (R.compare a b) (R.equal a b) (R.lt a b)
          (R.le a b) (R.gt a b) (R.ge a b) (rb (R.min a b)) (rb (R.max a b)));
    oracle "compare family, equal values" gen_ref print1
      (fun x ->
        let a = of_ref x and b = of_ref x in
        Printf.sprintf "%d %b %b %b" (U256.compare a b) (U256.equal a b) (U256.le a b)
          (U256.ge a b))
      (fun x ->
        let b = R.copy x in
        Printf.sprintf "%d %b %b %b" (R.compare x b) (R.equal x b) (R.le x b) (R.ge x b));
    oracle "add" gen_ref2 print2 (bin U256.add) (rbin R.add);
    oracle "checked_add" gen_ref2 print2 (bin U256.checked_add) (rbin R.checked_add);
    oracle "sub" gen_ref2 print2 (bin U256.sub) (rbin R.sub);
    oracle "checked_sub" gen_ref2 print2 (bin U256.checked_sub) (rbin R.checked_sub);
    oracle "mul" gen_ref2 print2 (bin U256.mul) (rbin R.mul);
    oracle "checked_mul" gen_ref2 print2 (bin U256.checked_mul) (rbin R.checked_mul);
    oracle "div" gen_ref2 print2 (bin U256.div) (rbin R.div);
    oracle "rem" gen_ref2 print2 (bin U256.rem) (rbin R.rem);
    oracle "divmod" gen_ref2 print2
      (fun (a, b) ->
        let q, r = U256.divmod (of_ref a) (of_ref b) in
        ub q ^ ub r)
      (fun (a, b) ->
        let q, r = R.divmod a b in
        rb q ^ rb r);
    oracle "div_rounding_up" gen_ref2 print2 (bin U256.div_rounding_up) (rbin R.div_rounding_up);
    oracle "logand/logor/logxor" gen_ref2 print2
      (fun p -> bin U256.logand p ^ bin U256.logor p ^ bin U256.logxor p)
      (fun p -> rbin R.logand p ^ rbin R.logor p ^ rbin R.logxor p);
    oracle "shift_left/shift_right/bit"
      QCheck2.Gen.(pair gen_ref (int_range (-3) 300))
      (fun (x, k) -> Printf.sprintf "(0x%s, %d)" (R.to_hex x) k)
      (fun (x, k) ->
        let u = of_ref x in
        string_of_bool (U256.bit u k)
        ^ (try ub (U256.shift_left u k) with Invalid_argument m -> m)
        ^ ub (U256.shift_right u k))
      (fun (x, k) ->
        string_of_bool (R.bit x k)
        ^ (try rb (R.shift_left x k) with Invalid_argument m -> m)
        ^ rb (R.shift_right x k));
    oracle "pow"
      QCheck2.Gen.(pair gen_ref (int_range (-2) 600))
      (fun (x, n) -> Printf.sprintf "(0x%s, %d)" (R.to_hex x) n)
      (fun (x, n) -> ub (U256.pow (of_ref x) n))
      (fun (x, n) -> rb (R.pow x n)) ]

let oracle_triples =
  let ter f (a, b, c) = ub (f (of_ref a) (of_ref b) (of_ref c)) in
  let rter f (a, b, c) = rb (f a b c) in
  (* b == c physically takes the a*b/b = a shortcut in both. *)
  let same_bc f (a, b, _) = let b = of_ref b in ub (f (of_ref a) b b) in
  let rsame_bc f (a, b, _) = rb (f a b b) in
  [ oracle "mul_div" gen_ref3 print3 (ter U256.mul_div) (rter R.mul_div);
    oracle "mul_div_rounding_up" gen_ref3 print3 (ter U256.mul_div_rounding_up)
      (rter R.mul_div_rounding_up);
    oracle "mul_div b == c" gen_ref3 print3
      (fun t -> same_bc U256.mul_div t ^ same_bc U256.mul_div_rounding_up t)
      (fun t -> rsame_bc R.mul_div t ^ rsame_bc R.mul_div_rounding_up t);
    oracle "mul_mod" gen_ref3 print3 (ter U256.mul_mod) (rter R.mul_mod) ]

(* The destination-passing calls under each aliasing pattern, recorded
   as bytes, with the [mul_into] alias guard's message. *)
module type INTO = sig
  type t

  val scratch : unit -> t
  val copy : t -> t
  val add_into : dst:t -> t -> t -> unit
  val sub_into : dst:t -> t -> t -> unit
  val mul_into : dst:t -> t -> t -> unit
  val to_bytes_be : t -> bytes
end

let into_trace (type v) (module M : INTO with type t = v) (a : v) (b : v) =
  let out = Buffer.create 512 in
  let record d = Buffer.add_bytes out (M.to_bytes_be d) in
  let fresh f = let d = M.scratch () in f d; record d in
  let aliased src f = let d = M.copy src in f d; record d in
  fresh (fun d -> M.add_into ~dst:d a b);
  fresh (fun d -> M.sub_into ~dst:d a b);
  fresh (fun d -> M.mul_into ~dst:d a b);
  aliased a (fun d -> M.add_into ~dst:d d b);
  aliased b (fun d -> M.add_into ~dst:d a d);
  aliased a (fun d -> M.add_into ~dst:d d d);
  aliased a (fun d -> M.sub_into ~dst:d d b);
  aliased b (fun d -> M.sub_into ~dst:d a d);
  aliased a (fun d -> M.sub_into ~dst:d d d);
  let guard f = try f (); "no guard" with Invalid_argument m -> m in
  let d = M.copy a in
  Buffer.add_string out (guard (fun () -> M.mul_into ~dst:d d b));
  Buffer.add_string out (guard (fun () -> M.mul_into ~dst:d b d));
  Buffer.contents out

let oracle_into =
  [ oracle "add_into/sub_into/mul_into and aliasing" gen_ref2 print2
      (fun (a, b) -> into_trace (module U256) (of_ref a) (of_ref b))
      (fun (a, b) -> into_trace (module R) a b) ]

let oracle_mont =
  let bn_new = U256.Mont.create ~modulus:bn254_order in
  let bn_ref = R.Mont.create ~modulus:(R.of_bytes_be (U256.to_bytes_be bn254_order)) in
  let reduce x = R.rem x (R.of_bytes_be (U256.to_bytes_be bn254_order)) in
  [ oracle "Mont.create/modulus/one" gen_ref print1
      (fun m ->
        let ctx = U256.Mont.create ~modulus:(of_ref m) in
        ub (U256.Mont.modulus ctx) ^ ub (U256.Mont.one ctx))
      (fun m ->
        let ctx = R.Mont.create ~modulus:m in
        rb (R.Mont.modulus ctx) ^ rb (R.Mont.one ctx));
    oracle "Mont.to_mont/of_mont/mul (bn254)" gen_ref2 print2
      (fun (a, b) ->
        let a = of_ref (reduce a) and b = of_ref (reduce b) in
        let m = U256.Mont.mul bn_new a b in
        ub (U256.Mont.to_mont bn_new a) ^ ub (U256.Mont.of_mont bn_new a) ^ ub m)
      (fun (a, b) ->
        let a = reduce a and b = reduce b in
        let m = R.Mont.mul bn_ref a b in
        rb (R.Mont.to_mont bn_ref a) ^ rb (R.Mont.of_mont bn_ref a) ^ rb m);
    oracle "Mont.mul (any odd modulus, unreduced inputs)" gen_ref3 print3
      (fun (m, a, b) ->
        let m = R.logor m R.one in
        ub (U256.Mont.mul (U256.Mont.create ~modulus:(of_ref m)) (of_ref a) (of_ref b)))
      (fun (m, a, b) ->
        let m = R.logor m R.one in
        rb (R.Mont.mul (R.Mont.create ~modulus:m) a b)) ]

(* Divisions whose Knuth step overestimates a quotient limb even after
   the two-limb test, so the remainder needs the divisor added back. *)
let test_oracle_add_back () =
  let h = R.of_hex in
  List.iter
    (fun (a, b, c) ->
      let q, r = U256.divmod (of_ref a) (of_ref c) and q', r' = R.divmod a c in
      Alcotest.(check string) "divmod" (rb q' ^ rb r') (ub q ^ ub r);
      Alcotest.(check string) "mul_div"
        (rb (R.mul_div_rounding_up a b c))
        (ub (U256.mul_div_rounding_up (of_ref a) (of_ref b) (of_ref c))))
    [ (h "3ffffffc000000000000003fffffffffffffc0000000", R.one, h "7ffffff80000001fffffff0000000");
      (h "1ffffffefffffff80000005ffffffe0000001", R.one, h "7ffffffbffffffffffffff");
      (h "fffffff00000003ffffffc00000020000001", R.one, h "800000000000003ffffffd0000000");
      (h "4d776d5bffffffe1e9f5a8fffffff80000005ffffffefffffff", R.one, h "7fffffffffffffd0000000");
      (h "fffffff3fffffffffffffc0000000fffffff80000007fffffff51f414c", R.one,
       h "800000000000001fffffffffffffe");
      (R.one, h "7ffffff800000000000001fffffff0000000200000000000001",
       h "7ffffff80000001ffffffefffffffbfffffffffffffe717ba93") ]

let oracle_tests =
  (Alcotest.test_case "constants" `Quick test_oracle_constants
   :: Alcotest.test_case "knuth add-back" `Quick test_oracle_add_back :: oracle_values)
  @ oracle_pairs @ oracle_triples @ oracle_into @ oracle_mont

(* ------------------------------------------------------------------ *)
(* Allocation budget                                                   *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words per call, averaged over 10 000 calls: comparisons
   and [write_be] must not allocate at all, and the basic constructors
   exactly one 10-word block (header + nine limbs). *)
let words_per_call f =
  let n = 10_000 in
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  let after = Gc.minor_words () in
  Float.round ((after -. before) /. float n)

let test_allocation_budget () =
  let a = u "0x1234567890abcdef1234567890abcdef1234567890abcdef" in
  let b = u "0x1234567890abcdef1234567890abcdef1234567890abcdee" in
  let check name expect f = Alcotest.(check (float 0.)) name expect (words_per_call f) in
  check "compare" 0. (fun () -> U256.compare a b);
  check "equal" 0. (fun () -> U256.equal a b);
  check "lt" 0. (fun () -> U256.lt a b);
  check "le" 0. (fun () -> U256.le a b);
  check "gt" 0. (fun () -> U256.gt a b);
  check "ge" 0. (fun () -> U256.ge a b);
  check "min" 0. (fun () -> U256.min a b);
  check "max" 0. (fun () -> U256.max a b);
  check "is_zero" 0. (fun () -> U256.is_zero a);
  check "bit" 0. (fun () -> U256.bit a 77);
  check "add" 10. (fun () -> U256.add a b);
  check "sub" 10. (fun () -> U256.sub a b);
  check "of_int" 10. (fun () -> U256.of_int 123456789);
  check "copy" 10. (fun () -> U256.copy a);
  let buf = U256.to_bytes_be a in
  check "read_be" 10. (fun () -> U256.read_be buf 0);
  check "write_be" 0. (fun () -> U256.write_be b buf 0);
  (* The division family works in a domain-local workspace: the 512-bit
     path allocates only its result, and its in-place form nothing. *)
  let c = u "0x1234567890abcdef1234567890abcdef1234567890abcdef12" in
  check "div" 10. (fun () -> U256.div a c);
  check "mul_div" 10. (fun () -> U256.mul_div a b c);
  check "mul_div_rounding_up" 10. (fun () -> U256.mul_div_rounding_up a b c);
  let ws = U256.workspace () and dst = U256.scratch () in
  check "mul_div_into" 0. (fun () -> U256.mul_div_into ws ~dst a b c);
  check "div_rounding_up_into" 0. (fun () -> U256.div_rounding_up_into ws ~dst a c);
  check "read_be_into" 0. (fun () -> U256.read_be_into ~dst buf 0)

let () =
  Alcotest.run "u256"
    [ ( "unit",
        [ Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "decimal roundtrip" `Quick test_of_string_roundtrip;
          Alcotest.test_case "hex" `Quick test_hex;
          Alcotest.test_case "add carries" `Quick test_add_carry_chain;
          Alcotest.test_case "sub borrows" `Quick test_sub_borrow_chain;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "div known" `Quick test_div_known;
          Alcotest.test_case "div normalization edge" `Quick test_div_normalization_edge;
          Alcotest.test_case "mul_div 512-bit" `Quick test_mul_div;
          Alcotest.test_case "mul_div rounding" `Quick test_mul_div_rounding;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "bits" `Quick test_bits;
          Alcotest.test_case "sqrt known" `Quick test_sqrt_known;
          Alcotest.test_case "bytes" `Quick test_bytes_be;
          Alcotest.test_case "mul_mod" `Quick test_mul_mod ] );
      ("properties", props);
      ( "in-place",
        [ Alcotest.test_case "boundaries" `Quick test_into_boundaries;
          Alcotest.test_case "aliasing" `Quick test_into_aliasing;
          Alcotest.test_case "mul_div fast paths" `Quick test_mul_div_fast_paths ]
        @ into_props @ bytes_io_props );
      ( "mont",
        Alcotest.test_case "edge values" `Quick test_mont_edges :: mont_props );
      ( "signed",
        [ Alcotest.test_case "basics" `Quick test_signed_basics;
          Alcotest.test_case "apply" `Quick test_signed_apply ]
        @ signed_props );
      ("oracle", oracle_tests);
      ("allocation", [ Alcotest.test_case "budget" `Quick test_allocation_budget ]) ]
