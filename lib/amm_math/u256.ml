(* Unsigned 256-bit integers over nine base-2^29 limbs (little-endian).
   Limbs 0-7 hold 29 bits each and limb 8 holds bits 232-255. A limb
   product is below 2^58, so a product column of up to nine of them plus
   the carry from the column below stays under 2^62: it fits OCaml's
   63-bit native int, and a multiply carries once per column rather than
   once per limb product. No Int64 boxing is needed anywhere. *)

type t = int array (* length 9; limbs 0-7 in [0, 2^29), limb 8 in [0, 2^24) *)

exception Overflow

let limb_bits = 29
let base = 1 lsl limb_bits
let mask = base - 1
let top_bits = 24
let top_mask = (1 lsl top_bits) - 1 (* limb 8 *)

(* Every array in this file is an [int array] whose length the code
   maintains, so indexing skips the bounds check. *)
let ( .%() ) (a : int array) i = Array.unsafe_get a i
let ( .%()<- ) (a : int array) i (v : int) = Array.unsafe_set a i v

let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

(* Zeroed buffers. A literal with a non-constant element is allocated
   inline; an all-constant array literal would be copied from a static
   block by a C call. *)
let fresh (z : int) : t = [| z; z; z; z; z; z; z; z; z |]
let fresh10 (z : int) = [| z; z; z; z; z; z; z; z; z; z |]

let fresh19 (z : int) =
  [| z; z; z; z; z; z; z; z; z; z; z; z; z; z; z; z; z; z; z |]

(* For 0 <= n < 2^62: three limbs. *)
let of_small n =
  [| n land mask; (n lsr limb_bits) land mask; n lsr (2 * limb_bits); 0; 0; 0; 0; 0; 0 |]

let set_small dst n =
  dst.%(0) <- n land mask;
  dst.%(1) <- (n lsr limb_bits) land mask;
  dst.%(2) <- n lsr (2 * limb_bits);
  dst.%(3) <- 0; dst.%(4) <- 0; dst.%(5) <- 0; dst.%(6) <- 0; dst.%(7) <- 0; dst.%(8) <- 0

let zero = fresh 0
let one = of_small 1
let two = of_small 2
let max_value = [| mask; mask; mask; mask; mask; mask; mask; mask; top_mask |]

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let of_int n =
  if n < 0 then invalid_arg "U256.of_int: negative";
  of_small n

let of_int_into ~dst n =
  if n < 0 then invalid_arg "U256.of_int: negative";
  set_small dst n

let of_int64 n =
  let l0 = Int64.to_int n land mask in
  let l1 = Int64.to_int (Int64.shift_right_logical n limb_bits) land mask in
  let l2 = Int64.to_int (Int64.shift_right_logical n (2 * limb_bits)) in
  [| l0; l1; l2; 0; 0; 0; 0; 0; 0 |]

(* The value as a native int when it is below 2^62 (native ints hold 62
   value bits), otherwise -1. *)
let small x =
  if x.%(3) lor x.%(4) lor x.%(5) lor x.%(6) lor x.%(7) lor x.%(8) <> 0 || x.%(2) >= 16
  then -1
  else x.%(0) lor (x.%(1) lsl limb_bits) lor (x.%(2) lsl (2 * limb_bits))

let to_int_opt x =
  let n = small x in
  if n < 0 then None else Some n

let to_int x =
  let n = small x in
  if n < 0 then raise Overflow else n

(* Bits [16i, 16i + 16): the sixteen-bit digits that [to_float] folds
   and [to_hex] prints. *)
let digit16 x i =
  let p = 16 * i in
  let l = p / limb_bits and s = p mod limb_bits in
  let d = x.%(l) lsr s in
  (if s > limb_bits - 16 then d lor (x.%(l + 1) lsl (limb_bits - s)) else d) land 0xFFFF

(* Horner over sixteen-bit digits, most significant first. Past 2^53
   each step rounds, so the digit width is part of the result; it stays
   at sixteen bits, which the bench outputs and the differential tests
   pin. *)
let to_float x =
  let acc = ref 0.0 in
  for i = 15 downto 0 do
    acc := (!acc *. 65536.0) +. float_of_int (digit16 x i)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let is_zero x =
  x.%(0) lor x.%(1) lor x.%(2) lor x.%(3) lor x.%(4) lor x.%(5) lor x.%(6) lor x.%(7)
  lor x.%(8)
  = 0

(* Compares limbs [0, i] of two limb arrays, most significant first. *)
let rec compare_from a b i =
  if i < 0 then 0
  else
    let x = a.%(i) and y = b.%(i) in
    if x <> y then if x < y then -1 else 1 else compare_from a b (i - 1)

let compare a b = compare_from a b 8

let equal a b =
  (a.%(0) lxor b.%(0)) lor (a.%(1) lxor b.%(1)) lor (a.%(2) lxor b.%(2))
  lor (a.%(3) lxor b.%(3)) lor (a.%(4) lxor b.%(4)) lor (a.%(5) lxor b.%(5))
  lor (a.%(6) lxor b.%(6)) lor (a.%(7) lxor b.%(7)) lor (a.%(8) lxor b.%(8))
  = 0

let lt a b = compare_from a b 8 < 0
let le a b = compare_from a b 8 <= 0
let gt a b = compare_from a b 8 > 0
let ge a b = compare_from a b 8 >= 0
let min a b = if le a b then a else b
let max a b = if ge a b then a else b

(* ------------------------------------------------------------------ *)
(* Scratch buffers and copies (for the destination-passing variants)    *)
(* ------------------------------------------------------------------ *)

let copy x = [| x.%(0); x.%(1); x.%(2); x.%(3); x.%(4); x.%(5); x.%(6); x.%(7); x.%(8) |]
let scratch () = fresh 0

(* Written out, like [copy]: a nine-step loop costs a division a tenth
   of its time. *)
let copy_into ~dst x =
  dst.%(0) <- x.%(0); dst.%(1) <- x.%(1); dst.%(2) <- x.%(2);
  dst.%(3) <- x.%(3); dst.%(4) <- x.%(4); dst.%(5) <- x.%(5);
  dst.%(6) <- x.%(6); dst.%(7) <- x.%(7); dst.%(8) <- x.%(8)

(* Number of limbs up to and including the highest nonzero one. *)
let rec len_of a n = if n > 0 && a.%(n - 1) = 0 then len_of a (n - 1) else n

(* ------------------------------------------------------------------ *)
(* Addition / subtraction                                              *)
(* ------------------------------------------------------------------ *)

(* dst <- (a + b) mod 2^256; returns the carry out of bit 255. Aliasing
   allowed: the loop reads limb i before writing it. *)
let add_into_carry dst a b =
  let c = ref 0 in
  for i = 0 to 7 do
    let s = a.%(i) + b.%(i) + !c in
    dst.%(i) <- s land mask;
    c := s lsr limb_bits
  done;
  let s = a.%(8) + b.%(8) + !c in
  dst.%(8) <- s land top_mask;
  s lsr top_bits

let add_into ~dst a b = ignore (add_into_carry dst a b)
let checked_add_into ~dst a b = if add_into_carry dst a b <> 0 then raise Overflow

let add a b =
  let r = fresh 0 in
  ignore (add_into_carry r a b);
  r

let checked_add a b =
  let r = fresh 0 in
  checked_add_into ~dst:r a b;
  r

(* dst <- (a - b) mod 2^256; returns 1 when a < b. A negative limb
   difference borrows: [d asr 29] is -1, else 0, and [d land mask] is the
   limb modulo 2^29. Aliasing allowed, as for [add_into_carry]. *)
let sub_into_borrow dst a b =
  let c = ref 0 in
  for i = 0 to 7 do
    let d = a.%(i) - b.%(i) + !c in
    dst.%(i) <- d land mask;
    c := d asr limb_bits
  done;
  let d = a.%(8) - b.%(8) + !c in
  dst.%(8) <- d land top_mask;
  if d < 0 then 1 else 0

let sub_into ~dst a b = ignore (sub_into_borrow dst a b)

let sub a b =
  let r = fresh 0 in
  ignore (sub_into_borrow r a b);
  r

let checked_sub a b =
  let r = fresh 0 in
  if sub_into_borrow r a b <> 0 then raise Overflow;
  r

(* ------------------------------------------------------------------ *)
(* Multiplication                                                      *)
(* ------------------------------------------------------------------ *)

(* Product scanning: r[k] <- column k of a[0..la) * b[0..lb) for
   k < ncols; returns the carry out of the last column. Trimming to the
   effective lengths matters: simulator amounts and prices mostly need
   two to five of the nine limbs. *)
let mul_columns r a la b lb ncols =
  let carry = ref 0 in
  for k = 0 to ncols - 1 do
    let s = ref !carry in
    for i = imax 0 (k - lb + 1) to imin k (la - 1) do
      s := !s + (a.%(i) * b.%(k - i))
    done;
    r.%(k) <- !s land mask;
    carry := !s lsr limb_bits
  done;
  !carry

let mul a b =
  let r = fresh 0 in
  ignore (mul_columns r a (len_of a 9) b (len_of b 9) 9);
  r.%(8) <- r.%(8) land top_mask;
  r

(* [dst] must not alias [a] or [b]: column k reads limbs of both inputs
   that earlier columns have already overwritten in [dst]. *)
let check_mul_alias what dst a b =
  if dst == a || dst == b then invalid_arg (what ^ ": dst aliases an input")

let checked_mul_into ~dst a b =
  check_mul_alias "U256.checked_mul_into" dst a b;
  let la = len_of a 9 and lb = len_of b 9 in
  (* The nonzero product of the top limbs lands in column la + lb - 2. *)
  if la + lb > 10 then raise Overflow;
  if mul_columns dst a la b lb 9 <> 0 || dst.%(8) > top_mask then raise Overflow

let checked_mul a b =
  let r = fresh 0 in
  checked_mul_into ~dst:r a b;
  r

let mul_into ~dst a b =
  check_mul_alias "U256.mul_into" dst a b;
  ignore (mul_columns dst a (len_of a 9) b (len_of b 9) 9);
  dst.%(8) <- dst.%(8) land top_mask

(* ------------------------------------------------------------------ *)
(* Division: Knuth algorithm D over base-2^29 limbs                    *)
(* ------------------------------------------------------------------ *)

(* Short division of u[0..m) by [d] into q[0..m) (q may be u); returns
   the remainder. Exact for any d < 2^33. *)
let div_limb q u m d =
  let r = ref 0 in
  for i = m - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor u.%(i) in
    q.%(i) <- cur / d;
    r := cur mod d
  done;
  !r

(* Significant bits of a non-negative int below 2^32. *)
let bit_length d =
  let n = ref 0 and d = ref d in
  if !d lsr 16 <> 0 then (n := 16; d := !d lsr 16);
  if !d lsr 8 <> 0 then (n := !n + 8; d := !d lsr 8);
  if !d lsr 4 <> 0 then (n := !n + 4; d := !d lsr 4);
  if !d lsr 2 <> 0 then (n := !n + 2; d := !d lsr 2);
  if !d lsr 1 <> 0 then (n := !n + 1; d := !d lsr 1);
  !n + !d

(* q[0..m-n] <- u / v and r[0..n) <- u mod v, for u[0..m) and v[0..n)
   with v[n-1] <> 0 and n <= 9. [u] needs room for m + 1 limbs and is
   destroyed; [q] and [r] must arrive zeroed; [vn] (nine limbs) receives
   the normalized divisor. *)
let divmod_limbs ~vn ~q ~r u m v n =
  if m < n then
    for i = 0 to m - 1 do
      r.%(i) <- u.%(i)
    done
  else if n = 1 then r.%(0) <- div_limb q u m v.%(0)
  else begin
    (* Normalize: shift both so the divisor's top limb has bit 28 set. *)
    let s = limb_bits - bit_length v.%(n - 1) in
    let rs = limb_bits - s in
    for i = n - 1 downto 1 do
      vn.%(i) <- ((v.%(i) lsl s) lor (v.%(i - 1) lsr rs)) land mask
    done;
    vn.%(0) <- (v.%(0) lsl s) land mask;
    u.%(m) <- u.%(m - 1) lsr rs;
    for i = m - 1 downto 1 do
      u.%(i) <- ((u.%(i) lsl s) lor (u.%(i - 1) lsr rs)) land mask
    done;
    u.%(0) <- (u.%(0) lsl s) land mask;
    let vtop = vn.%(n - 1) and vnext = vn.%(n - 2) in
    for j = m - n downto 0 do
      let num = (u.%(j + n) lsl limb_bits) lor u.%(j + n - 1) in
      let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
      while
        !rhat < base
        && (!qhat >= base || !qhat * vnext > (!rhat lsl limb_bits) lor u.%(j + n - 2))
      do
        decr qhat;
        rhat := !rhat + vtop
      done;
      (* Multiply and subtract qhat * vn from u[j .. j+n]; [k] carries
         the high product limb plus the borrow. *)
      let qh = !qhat in
      let k = ref 0 in
      for i = 0 to n - 1 do
        let p = qh * vn.%(i) in
        let t = u.%(i + j) - !k - (p land mask) in
        u.%(i + j) <- t land mask;
        k := (p lsr limb_bits) - (t asr limb_bits)
      done;
      let t = u.%(j + n) - !k in
      if t < 0 then begin
        (* qhat was one too large: add vn back. *)
        q.%(j) <- qh - 1;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s2 = u.%(i + j) + vn.%(i) + !c in
          u.%(i + j) <- s2 land mask;
          c := s2 lsr limb_bits
        done;
        u.%(j + n) <- (t + !c) land mask
      end
      else begin
        u.%(j + n) <- t;
        q.%(j) <- qh
      end
    done;
    (* Denormalize the remainder. *)
    for i = 0 to n - 1 do
      let hi = if i + 1 < n then u.%(i + 1) else 0 in
      r.%(i) <- ((u.%(i) lsr s) lor (hi lsl rs)) land mask
    done
  end

(* The scratch of a division: [u] the dividend or the 512-bit product
   (destroyed), [q] the quotient (up to 18 limbs), [r] the remainder and
   [vn] the normalized divisor. Nothing survives between calls. *)
type ws = { u : int array; q : int array; r : t; vn : t }

let workspace () = { u = fresh19 0; q = fresh19 0; r = fresh 0; vn = fresh 0 }

(* The immutable division family runs in a domain-local workspace, so
   each call allocates only its result. No operation here calls back
   into another while it holds the workspace. *)
let shared_ws = Domain.DLS.new_key workspace
let shared () = Domain.DLS.get shared_ws

let clear (a : int array) n =
  for i = 0 to n - 1 do
    a.%(i) <- 0
  done

(* ws.q <- a / b and ws.r <- a mod b; the quotient fits limbs 0-8. *)
let divmod_ws ws a b =
  let n = len_of b 9 in
  if n = 0 then raise Division_by_zero;
  copy_into ~dst:ws.u a;
  copy_into ~dst:ws.q zero;
  copy_into ~dst:ws.r zero;
  divmod_limbs ~vn:ws.vn ~q:ws.q ~r:ws.r ws.u (len_of a 9) b n

(* dst <- dst + 1 when the remainder is nonzero; raises {!Overflow} on
   carry out. *)
let round_up_into ws ~dst =
  if (not (is_zero ws.r)) && add_into_carry dst dst one <> 0 then raise Overflow

let div_into ws ~dst a b =
  divmod_ws ws a b;
  copy_into ~dst ws.q

let div_rounding_up_into ws ~dst a b =
  div_into ws ~dst a b;
  round_up_into ws ~dst

let divmod a b =
  let ws = shared () in
  divmod_ws ws a b;
  (copy ws.q, copy ws.r)

let div a b =
  let q = fresh 0 in
  div_into (shared ()) ~dst:q a b;
  q

let rem a b =
  let ws = shared () in
  divmod_ws ws a b;
  copy ws.r

let div_rounding_up a b =
  let q = fresh 0 in
  div_rounding_up_into (shared ()) ~dst:q a b;
  q

(* ws.q <- a*b / c and ws.r <- a*b mod c, through the full 512-bit
   product. Returns how many limbs of ws.q hold the quotient: at least
   nine, and only those are cleared and written. *)
let wide_divmod ws a b c =
  let n = len_of c 9 in
  if n = 0 then raise Division_by_zero;
  let la = len_of a 9 and lb = len_of b 9 in
  ignore (mul_columns ws.u a la b lb (la + lb));
  let m = len_of ws.u (la + lb) in
  let qlen = imax 9 (m - n + 1) in
  clear ws.q qlen;
  copy_into ~dst:ws.r zero;
  divmod_limbs ~vn:ws.vn ~q:ws.q ~r:ws.r ws.u m c n;
  qlen

(* Shared body of the mul_div family. When a*b fits in a native int the
   512-bit product/divide machinery is overkill; when b == c (Q96
   scale/unscale round-trips) a*b/b = a exactly. Every input is read
   before [dst] is written, so [dst] may be any of them. *)
let mul_div_gen_into ws ~round_up ~dst a b c =
  if b == c then begin
    if is_zero c then raise Division_by_zero;
    copy_into ~dst a
  end
  else begin
    let ia = small a and ib = small b in
    if ia >= 0 && ib >= 0 && (ia = 0 || ib = 0 || ib <= max_int / ia) then begin
      let p = ia * ib and ic = small c in
      if ic = 0 then raise Division_by_zero;
      if ic < 0 then
        (* c needs more than 62 bits (so c > a*b): quotient 0. *)
        set_small dst (if round_up && p <> 0 then 1 else 0)
      else
        let q = p / ic in
        set_small dst (if round_up && p mod ic <> 0 then q + 1 else q)
    end
    else begin
      let qlen = wide_divmod ws a b c in
      (* The quotient must fit in 256 bits. *)
      if len_of ws.q qlen > 9 || ws.q.%(8) > top_mask then raise Overflow;
      copy_into ~dst ws.q;
      if round_up then round_up_into ws ~dst
    end
  end

let mul_div_into ws ~dst a b c = mul_div_gen_into ws ~round_up:false ~dst a b c
let mul_div_rounding_up_into ws ~dst a b c = mul_div_gen_into ws ~round_up:true ~dst a b c

let mul_div a b c =
  let r = fresh 0 in
  mul_div_into (shared ()) ~dst:r a b c;
  r

let mul_div_rounding_up a b c =
  let r = fresh 0 in
  mul_div_rounding_up_into (shared ()) ~dst:r a b c;
  r

let mul_mod a b c =
  let ws = shared () in
  ignore (wide_divmod ws a b c);
  copy ws.r

let pow x n =
  if n < 0 then invalid_arg "U256.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else go (if n land 1 = 1 then mul acc b else acc) (mul b b) (n lsr 1)
  in
  go one x n

(* ------------------------------------------------------------------ *)
(* Fixed-modulus Montgomery arithmetic                                 *)
(* ------------------------------------------------------------------ *)

(* Modular multiplication against a modulus fixed once per context: the
   generic [mul_mod] pays a full 512-bit product plus a Knuth division on
   every call, while Montgomery's method replaces the division with
   shifts against a precomputed -m^-1 mod 2^29. The CIOS (coarsely
   integrated operand scanning) loop below interleaves the product and
   the reduction, so the running value stays within one spare limb. *)
module Mont = struct
  (* The [one] accessor below shadows the module-level constant. *)
  let u256_one = one

  type ctx = {
    m : t;
    m0' : int; (* -m^-1 mod 2^29 *)
    one_m : t; (* R mod m: the Montgomery form of 1 *)
    r2 : t; (* R^2 mod m, for conversions into Montgomery form *)
  }

  let modulus ctx = copy ctx.m
  let one ctx = copy ctx.one_m

  (* CIOS Montgomery product a*b*R^-1 mod m with R = 2^256 = 2^(8*29 + 24).
     Steps 0-7 add a_i*b, add the q*m that clears the low limb and drop
     that limb; step 8 (a_8 holds the top 24 bits) clears and drops only
     24 bits. The running value t stays below b + m < 2^257 between steps
     (below 2^286 within one), so ten limbs hold it. With both inputs
     below 2^256 the result matches the generic CIOS at R = 2^256 bit for
     bit: both add the unique Q < 2^256 with a*b + Q*m = 0 mod 2^256. *)
  let mul ctx a b =
    let m = ctx.m and m0' = ctx.m0' in
    let t = fresh10 0 in
    for i = 0 to 8 do
      let ai = a.%(i) in
      let c = ref 0 in
      for j = 0 to 8 do
        let v = t.%(j) + (ai * b.%(j)) + !c in
        t.%(j) <- v land mask;
        c := v lsr limb_bits
      done;
      t.%(9) <- t.%(9) + !c;
      if i < 8 then begin
        let q = (t.%(0) * m0') land mask in
        let c = ref ((t.%(0) + (q * m.%(0))) lsr limb_bits) in
        for j = 1 to 8 do
          let v = t.%(j) + (q * m.%(j)) + !c in
          t.%(j - 1) <- v land mask;
          c := v lsr limb_bits
        done;
        let v = t.%(9) + !c in
        t.%(8) <- v land mask;
        t.%(9) <- v lsr limb_bits
      end
      else begin
        let q = (t.%(0) * m0') land top_mask in
        let c = ref 0 in
        for j = 0 to 8 do
          let v = t.%(j) + (q * m.%(j)) + !c in
          t.%(j) <- v land mask;
          c := v lsr limb_bits
        done;
        t.%(9) <- t.%(9) + !c;
        for j = 0 to 8 do
          t.%(j) <- (t.%(j) lsr top_bits) lor ((t.%(j + 1) lsl (limb_bits - top_bits)) land mask)
        done
      end
    done;
    (* t < b + m fits limbs 0-8 (limb 8 may hold bit 256); one
       conditional subtract normalizes. *)
    let r = fresh 0 in
    if compare_from t m 8 >= 0 then sub_into ~dst:r t m
    else for i = 0 to 8 do r.%(i) <- t.%(i) done;
    r

  let create ~modulus =
    if is_zero modulus || modulus.%(0) land 1 = 0 then
      invalid_arg "U256.Mont.create: modulus must be odd";
    (* m0' = -m^-1 mod 2^29 by Newton–Hensel lifting: for odd m0 the seed
       m0 is its own inverse mod 8, and each step doubles the bits. The
       products wrap modulo 2^63, which keeps them exact modulo 2^29. *)
    let m0 = modulus.%(0) in
    let x = ref m0 in
    for _ = 1 to 4 do
      x := !x * (2 - (m0 * !x)) land mask
    done;
    let m0' = -(!x) land mask in
    (* R mod m computed without a 257-bit value: (2^256 - 1) mod m, +1. *)
    let one_m = rem (add (rem max_value modulus) u256_one) modulus in
    let r2 = mul_mod one_m one_m modulus in
    { m = copy modulus; m0'; one_m; r2 }

  let to_mont ctx x = mul ctx x ctx.r2
  let of_mont ctx x = mul ctx x u256_one
end

(* ------------------------------------------------------------------ *)
(* Bitwise                                                             *)
(* ------------------------------------------------------------------ *)

let logand a b =
  let r = fresh 0 in
  for i = 0 to 8 do
    r.%(i) <- a.%(i) land b.%(i)
  done;
  r

let logor a b =
  let r = fresh 0 in
  for i = 0 to 8 do
    r.%(i) <- a.%(i) lor b.%(i)
  done;
  r

let logxor a b =
  let r = fresh 0 in
  for i = 0 to 8 do
    r.%(i) <- a.%(i) lxor b.%(i)
  done;
  r

let lognot a = logxor a max_value

(* Limbs are written from the top down and each reads only limbs at or
   below its own index, so [dst] may be [x]. *)
let shift_left_into ~dst x k =
  if k < 0 then invalid_arg "U256.shift_left";
  if k >= 256 then clear dst 9
  else begin
    let ls = k / limb_bits and bs = k mod limb_bits in
    let rs = limb_bits - bs in
    for i = 8 downto ls + 1 do
      dst.%(i) <- ((x.%(i - ls) lsl bs) lor (x.%(i - ls - 1) lsr rs)) land mask
    done;
    dst.%(ls) <- (x.%(0) lsl bs) land mask;
    clear dst ls;
    dst.%(8) <- dst.%(8) land top_mask
  end

let shift_left x k =
  let r = fresh 0 in
  shift_left_into ~dst:r x k;
  r

let shift_right x k =
  if k < 0 then invalid_arg "U256.shift_right";
  if k >= 256 then zero
  else begin
    let ls = k / limb_bits and bs = k mod limb_bits in
    let rs = limb_bits - bs in
    let r = fresh 0 in
    for i = 0 to 7 - ls do
      r.%(i) <- ((x.%(i + ls) lsr bs) lor (x.%(i + ls + 1) lsl rs)) land mask
    done;
    r.%(8 - ls) <- x.%(8) lsr bs;
    r
  end

let bit x i = i >= 0 && i < 256 && (x.%(i / limb_bits) lsr (i mod limb_bits)) land 1 = 1

let bits x =
  let l = len_of x 9 in
  if l = 0 then 0 else ((l - 1) * limb_bits) + bit_length x.%(l - 1)

let sqrt n =
  if is_zero n then zero
  else begin
    let x0 = shift_left one ((bits n + 1) / 2) in
    let rec go x =
      let x' = shift_right (add x (div n x)) 1 in
      if lt x' x then go x' else x
    in
    go x0
  end

(* ------------------------------------------------------------------ *)
(* Strings and bytes                                                   *)
(* ------------------------------------------------------------------ *)

(* Nine decimal digits per short division by 10^9. *)
let to_string x =
  if is_zero x then "0"
  else begin
    let cur = copy x in
    let rec chunks acc m =
      let m = len_of cur m in
      if m = 0 then acc else chunks (div_limb cur cur m 1_000_000_000 :: acc) m
    in
    match chunks [] 9 with
    | [] -> "0"
    | first :: rest ->
      let buf = Buffer.create 78 in
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

let of_hex s =
  let s = if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')
    then String.sub s 2 (String.length s - 2) else s in
  if s = "" then invalid_arg "U256.of_hex: empty";
  if String.length s > 64 then raise Overflow;
  let r = fresh 0 in
  let nibble c = match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "U256.of_hex: bad character"
  in
  let len = String.length s in
  for i = 0 to len - 1 do
    let v = nibble s.[len - 1 - i] in
    let l = 4 * i / limb_bits and o = 4 * i mod limb_bits in
    r.%(l) <- r.%(l) lor ((v lsl o) land mask);
    if o > limb_bits - 4 then r.%(l + 1) <- r.%(l + 1) lor (v lsr (limb_bits - o))
  done;
  r

let of_string s =
  if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then of_hex s
  else begin
    if s = "" then invalid_arg "U256.of_string: empty";
    let acc = ref zero in
    let ten_k = of_int 10000 in
    let len = String.length s in
    let i = ref 0 in
    (* Consume in chunks of up to 4 decimal digits. *)
    while !i < len do
      let chunk_len = Stdlib.min 4 (len - !i) in
      let chunk = String.sub s !i chunk_len in
      String.iter (fun c -> if c < '0' || c > '9' then invalid_arg "U256.of_string: bad character") chunk;
      let scale = match chunk_len with 1 -> of_int 10 | 2 -> of_int 100 | 3 -> of_int 1000 | _ -> ten_k in
      acc := checked_add (checked_mul !acc scale) (of_int (int_of_string chunk));
      i := !i + chunk_len
    done;
    !acc
  end

let to_hex x =
  if is_zero x then "0"
  else begin
    let nibble j = (digit16 x (j / 4) lsr (4 * (j mod 4))) land 0xF in
    let top = ref 63 in
    while nibble !top = 0 do decr top done;
    String.init (!top + 1) (fun k -> "0123456789abcdef".[nibble (!top - k)])
  end

let check_offset what b off =
  if off < 0 || off > Bytes.length b - 32 then invalid_arg (what ^ ": offset out of range")

(* The 32 bytes are four big-endian 64-bit words; w0 holds bits 0-63.
   Limb k covers bits [29k, 29k + 29), so limbs 2, 4 and 6 straddle two
   words. The Int64 values stay unboxed: no allocation but the result. *)
let read_be_into ~dst b off =
  check_offset "U256.read_be" b off;
  let w3 = Bytes.get_int64_be b off and w2 = Bytes.get_int64_be b (off + 8) in
  let w1 = Bytes.get_int64_be b (off + 16) and w0 = Bytes.get_int64_be b (off + 24) in
  let lo w = Int64.to_int w and hi w k = Int64.to_int (Int64.shift_right_logical w k) in
  dst.%(0) <- lo w0 land mask;
  dst.%(1) <- hi w0 29 land mask;
  dst.%(2) <- hi w0 58 lor ((lo w1 land 0x7FFFFF) lsl 6);
  dst.%(3) <- hi w1 23 land mask;
  dst.%(4) <- hi w1 52 lor ((lo w2 land 0x1FFFF) lsl 12);
  dst.%(5) <- hi w2 17 land mask;
  dst.%(6) <- hi w2 46 lor ((lo w3 land 0x7FF) lsl 18);
  dst.%(7) <- hi w3 11 land mask;
  dst.%(8) <- hi w3 40

let read_be b off =
  let r = fresh 0 in
  read_be_into ~dst:r b off;
  r

let of_bytes_be b =
  let len = Bytes.length b in
  if len = 0 || len > 32 then invalid_arg "U256.of_bytes_be: need 1..32 bytes";
  if len = 32 then read_be b 0
  else begin
    let padded = Bytes.make 32 '\000' in
    Bytes.blit b 0 padded (32 - len) len;
    read_be padded 0
  end

let write_be x b off =
  check_offset "U256.write_be" b off;
  (* Each word is a limb run below 2^62 plus the low bits of the next
     limb, shifted in as an Int64 so the top bit survives. *)
  let word run next shift =
    Int64.logor (Int64.of_int run) (Int64.shift_left (Int64.of_int next) shift)
  in
  Bytes.set_int64_be b off (word ((x.%(6) lsr 18) lor (x.%(7) lsl 11)) x.%(8) 40);
  Bytes.set_int64_be b (off + 8) (word ((x.%(4) lsr 12) lor (x.%(5) lsl 17)) x.%(6) 46);
  Bytes.set_int64_be b (off + 16) (word ((x.%(2) lsr 6) lor (x.%(3) lsl 23)) x.%(4) 52);
  Bytes.set_int64_be b (off + 24) (word (x.%(0) lor (x.%(1) lsl 29)) x.%(2) 58)

let to_bytes_be x =
  let b = Bytes.create 32 in
  write_be x b 0;
  b

let pp fmt x = Format.pp_print_string fmt (to_string x)
let pp_hex fmt x = Format.fprintf fmt "0x%s" (to_hex x)
