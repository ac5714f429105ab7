(* Reference model for [Amm_math.U256]: the earlier implementation over
   sixteen base-2^16 digits, kept verbatim below this comment. The
   differential group in test_u256.ml runs every function of u256.mli
   against it and compares bytes and exceptions. *)

(* Unsigned 256-bit integers over sixteen base-2^16 digits (little-endian).
   Digits stay below 2^16, so any digit product plus carries fits well within
   OCaml's 63-bit native int; no Int64 boxing is needed anywhere. *)

type t = int array (* length 16, each in [0, 0xFFFF] *)

exception Overflow

let ndigits = 16
let digit_bits = 16
let base = 0x1_0000
let mask = 0xFFFF

let make_zero () = Array.make ndigits 0

let zero = make_zero ()
let one = Array.init ndigits (fun i -> if i = 0 then 1 else 0)
let two = Array.init ndigits (fun i -> if i = 0 then 2 else 0)
let max_value = Array.make ndigits mask

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let of_int n =
  if n < 0 then invalid_arg "U256.of_int: negative";
  let r = make_zero () in
  let rec fill i n = if n <> 0 then (r.(i) <- n land mask; fill (i + 1) (n lsr digit_bits)) in
  fill 0 n;
  r

let of_int64 n =
  let r = make_zero () in
  let n0 = Int64.to_int (Int64.logand n 0xFFFFL) in
  let n1 = Int64.to_int (Int64.logand (Int64.shift_right_logical n 16) 0xFFFFL) in
  let n2 = Int64.to_int (Int64.logand (Int64.shift_right_logical n 32) 0xFFFFL) in
  let n3 = Int64.to_int (Int64.logand (Int64.shift_right_logical n 48) 0xFFFFL) in
  r.(0) <- n0; r.(1) <- n1; r.(2) <- n2; r.(3) <- n3;
  r

let to_int_opt x =
  (* Native ints hold 62 value bits; accept values below 2^62. *)
  let rec high_clear i = i >= ndigits || (x.(i) = 0 && high_clear (i + 1)) in
  if not (high_clear 4) || x.(3) >= 0x4000 then None
  else Some (x.(0) lor (x.(1) lsl 16) lor (x.(2) lsl 32) lor (x.(3) lsl 48))

let to_int x = match to_int_opt x with Some n -> n | None -> raise Overflow

let to_float x =
  let acc = ref 0.0 in
  for i = ndigits - 1 downto 0 do
    acc := (!acc *. 65536.0) +. float_of_int x.(i)
  done;
  !acc

let is_zero x = Array.for_all (fun d -> d = 0) x

let compare a b =
  let rec go i =
    if i < 0 then 0
    else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
    else go (i - 1)
  in
  go (ndigits - 1)

let equal a b = compare a b = 0
let lt a b = compare a b < 0
let le a b = compare a b <= 0
let gt a b = compare a b > 0
let ge a b = compare a b >= 0
let min a b = if le a b then a else b
let max a b = if ge a b then a else b

(* ------------------------------------------------------------------ *)
(* Scratch buffers and copies (for the destination-passing variants)    *)
(* ------------------------------------------------------------------ *)

let copy = Array.copy
let scratch () = make_zero ()

let arr_effective_len a =
  let rec go i = if i > 0 && a.(i - 1) = 0 then go (i - 1) else i in
  go (Array.length a)

(* ------------------------------------------------------------------ *)
(* Addition / subtraction                                              *)
(* ------------------------------------------------------------------ *)

(* Destination-passing core: writes a+b into [dst] (aliasing allowed,
   the loop reads index i before writing it) and returns the carry. *)
let add_into_carry dst a b =
  let carry = ref 0 in
  for i = 0 to ndigits - 1 do
    let s = a.(i) + b.(i) + !carry in
    dst.(i) <- s land mask;
    carry := s lsr digit_bits
  done;
  !carry

let add_into ~dst a b = ignore (add_into_carry dst a b)

let add_with_carry a b =
  let r = make_zero () in
  let c = add_into_carry r a b in
  (r, c)

let add a b = fst (add_with_carry a b)

let checked_add a b =
  let r, c = add_with_carry a b in
  if c <> 0 then raise Overflow else r

let sub_into_borrow dst a b =
  let borrow = ref 0 in
  for i = 0 to ndigits - 1 do
    let s = a.(i) - b.(i) - !borrow in
    if s < 0 then (dst.(i) <- s + base; borrow := 1)
    else (dst.(i) <- s; borrow := 0)
  done;
  !borrow

let sub_into ~dst a b = ignore (sub_into_borrow dst a b)

let sub_with_borrow a b =
  let r = make_zero () in
  let bw = sub_into_borrow r a b in
  (r, bw)

let sub a b = fst (sub_with_borrow a b)

let checked_sub a b =
  let r, bw = sub_with_borrow a b in
  if bw <> 0 then raise Overflow else r

(* ------------------------------------------------------------------ *)
(* Multiplication                                                      *)
(* ------------------------------------------------------------------ *)

(* Schoolbook product over the *effective* (nonzero) digit lengths: the
   typical simulator operand uses 4-10 of its 16 digits, so trimming the
   loop bounds and the result allocation cuts the inner-loop work by an
   order of magnitude versus always walking 16x16 digits. *)
let arr_mul a b =
  let la = arr_effective_len a and lb = arr_effective_len b in
  if la = 0 || lb = 0 then [| 0 |]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = Array.unsafe_get a i in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let p =
            (ai * Array.unsafe_get b j) + Array.unsafe_get r (i + j) + !carry
          in
          Array.unsafe_set r (i + j) (p land mask);
          carry := p lsr digit_bits
        done;
        r.(i + lb) <- r.(i + lb) + !carry
      end
    done;
    r
  end

(* Low 256 bits of a (possibly shorter or longer) digit array. *)
let arr_low_256 p =
  let r = make_zero () in
  Array.blit p 0 r 0 (Stdlib.min (Array.length p) ndigits);
  r

let mul a b = arr_low_256 (arr_mul a b)

let checked_mul a b =
  let p = arr_mul a b in
  for i = ndigits to Array.length p - 1 do
    if p.(i) <> 0 then raise Overflow
  done;
  arr_low_256 p

(* Destination-passing wrapping multiply. [dst] must not alias [a] or
   [b]: the product is accumulated in place across both loops, so an
   aliased input would be read after it was partially overwritten. *)
let mul_into ~dst a b =
  if dst == a || dst == b then invalid_arg "U256.mul_into: dst aliases an input";
  Array.fill dst 0 ndigits 0;
  let la = arr_effective_len a and lb = arr_effective_len b in
  for i = 0 to la - 1 do
    let ai = Array.unsafe_get a i in
    if ai <> 0 then begin
      let carry = ref 0 in
      let jmax = Stdlib.min (lb - 1) (ndigits - 1 - i) in
      for j = 0 to jmax do
        let p =
          (ai * Array.unsafe_get b j) + Array.unsafe_get dst (i + j) + !carry
        in
        Array.unsafe_set dst (i + j) (p land mask);
        carry := p lsr digit_bits
      done;
      (* The spill cell i+jmax+1 is provably still zero here (earlier
         iterations only touch lower cells), so the carry fits as-is; a
         later iteration's inner loop renormalizes it if it grows. *)
      if i + jmax + 1 < ndigits then
        dst.(i + jmax + 1) <- dst.(i + jmax + 1) + !carry
    end
  done

(* ------------------------------------------------------------------ *)
(* Division: Knuth algorithm D over base-2^16 digits                   *)
(* ------------------------------------------------------------------ *)

(* Short division of [u] (length m) by a single digit [d]. *)
let arr_div_digit u m d =
  let q = Array.make m 0 in
  let rem = ref 0 in
  for i = m - 1 downto 0 do
    let cur = (!rem lsl digit_bits) lor u.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (q, !rem)

(* Count of leading zero bits of a nonzero digit within 16 bits. *)
let digit_nlz d =
  let rec go n d = if d land 0x8000 <> 0 then n else go (n + 1) (d lsl 1) in
  go 0 d

(* Full division of digit arrays; returns (quotient, remainder), both
   trimmed to their natural lengths. *)
let arr_divmod u_in v_in =
  let m = arr_effective_len u_in and n = arr_effective_len v_in in
  if n = 0 then raise Division_by_zero;
  if m < n then ([| 0 |], Array.sub u_in 0 (Stdlib.max m 1))
  else if n = 1 then begin
    let q, r = arr_div_digit u_in m v_in.(0) in
    (q, [| r |])
  end else begin
    let s = digit_nlz v_in.(n - 1) in
    (* Normalized copies: vn has n digits, un has m+1 digits. *)
    let vn = Array.make n 0 in
    for i = n - 1 downto 1 do
      vn.(i) <- ((v_in.(i) lsl s) lor (v_in.(i - 1) lsr (digit_bits - s))) land mask
    done;
    vn.(0) <- (v_in.(0) lsl s) land mask;
    let un = Array.make (m + 1) 0 in
    un.(m) <- if s = 0 then 0 else u_in.(m - 1) lsr (digit_bits - s);
    for i = m - 1 downto 1 do
      un.(i) <- ((u_in.(i) lsl s) lor (u_in.(i - 1) lsr (digit_bits - s))) land mask
    done;
    un.(0) <- (u_in.(0) lsl s) land mask;
    let q = Array.make (m - n + 1) 0 in
    for j = m - n downto 0 do
      let num = (un.(j + n) lsl digit_bits) lor un.(j + n - 1) in
      let qhat = ref (num / vn.(n - 1)) and rhat = ref (num mod vn.(n - 1)) in
      let continue = ref true in
      while !continue do
        if !qhat >= base
           || !qhat * vn.(n - 2) > (!rhat lsl digit_bits) lor un.(j + n - 2)
        then begin
          decr qhat;
          rhat := !rhat + vn.(n - 1);
          if !rhat >= base then continue := false
        end
        else continue := false
      done;
      (* Multiply and subtract qhat * vn from un[j .. j+n]. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * vn.(i)) + !carry in
        carry := p lsr digit_bits;
        let t = un.(i + j) - (p land mask) - !borrow in
        if t < 0 then (un.(i + j) <- t + base; borrow := 1)
        else (un.(i + j) <- t; borrow := 0)
      done;
      let t = un.(j + n) - !carry - !borrow in
      if t < 0 then begin
        (* qhat was one too large: add vn back. *)
        un.(j + n) <- t + base;
        q.(j) <- !qhat - 1;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s2 = un.(i + j) + vn.(i) + !c in
          un.(i + j) <- s2 land mask;
          c := s2 lsr digit_bits
        done;
        un.(j + n) <- (un.(j + n) + !c) land mask
      end
      else begin
        un.(j + n) <- t;
        q.(j) <- !qhat
      end
    done;
    (* Denormalize the remainder. *)
    let r = Array.make n 0 in
    for i = 0 to n - 1 do
      let hi = if i + 1 < n then un.(i + 1) else 0 in
      r.(i) <- if s = 0 then un.(i) else ((un.(i) lsr s) lor (hi lsl (digit_bits - s))) land mask
    done;
    (q, r)
  end

let fit_256 a =
  let r = make_zero () in
  let l = Stdlib.min (Array.length a) ndigits in
  Array.blit a 0 r 0 l;
  for i = ndigits to Array.length a - 1 do
    if a.(i) <> 0 then raise Overflow
  done;
  r

let divmod a b =
  let q, r = arr_divmod a b in
  (fit_256 q, fit_256 r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let div_rounding_up a b =
  let q, r = divmod a b in
  if is_zero r then q else checked_add q one

(* Small-operand fast path for the mul_div family: when a*b fits in a
   native int the whole 512-bit product/divide machinery is overkill.
   Returns the quotient and remainder as native ints. *)
let small_muldivmod a b c =
  match to_int_opt a with
  | None -> None
  | Some ia ->
    (match to_int_opt b with
    | None -> None
    | Some ib when ia = 0 || ib = 0 || ib <= max_int / ia ->
      let p = ia * ib in
      (match to_int_opt c with
      | Some 0 -> raise Division_by_zero
      | Some ic -> Some (p / ic, p mod ic)
      | None ->
        (* c needs more than 62 bits (so c <> 0 and c > a*b): quotient 0. *)
        Some (0, p))
    | Some _ -> None)

let mul_div a b c =
  if b == c then begin
    (* a*b/b = a exactly; Q96 scale/unscale round-trips hit this. *)
    if is_zero c then raise Division_by_zero;
    a
  end
  else
    match small_muldivmod a b c with
    | Some (q, _) -> of_int q
    | None ->
      let p = arr_mul a b in
      let q, _ = arr_divmod p c in
      fit_256 q

let mul_div_rounding_up a b c =
  if b == c then begin
    if is_zero c then raise Division_by_zero;
    a (* remainder is zero: nothing to round *)
  end
  else
    match small_muldivmod a b c with
    | Some (q, 0) -> of_int q
    | Some (q, _) -> of_int (q + 1)
    | None ->
      let p = arr_mul a b in
      let q, r = arr_divmod p c in
      let q = fit_256 q in
      if arr_effective_len r = 0 then q else checked_add q one

let mul_mod a b c =
  let p = arr_mul a b in
  let _, r = arr_divmod p c in
  fit_256 r

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
   generic [mul_mod] pays a full 512-bit schoolbook product plus a Knuth
   division on every call, while Montgomery's method replaces the
   division with shifts against a precomputed -N^-1 mod 2^16. The CIOS
   (coarsely integrated operand scanning) loop below interleaves the
   product and the reduction, so every intermediate stays within two
   spare limbs and all digit products fit in a native int. *)
module Mont = struct
  (* The [one] accessor below shadows the module-level constant. *)
  let u256_one = one

  type ctx = {
    m : int array; (* modulus digits, little-endian, length 16 *)
    m0' : int; (* -m^-1 mod 2^16 *)
    one_m : t; (* R mod m: the Montgomery form of 1 *)
    r2 : t; (* R^2 mod m, for conversions into Montgomery form *)
  }

  let modulus ctx = copy ctx.m
  let one ctx = copy ctx.one_m

  (* CIOS Montgomery product: a*b*R^-1 mod m with R = 2^256. Inputs must
     be < m; the result is < m and freshly allocated. *)
  let mul ctx a b =
    let m = ctx.m and m0' = ctx.m0' in
    (* t holds ndigits+2 limbs: the running (a*b + q*m)/2^(16i). *)
    let t = Array.make (ndigits + 2) 0 in
    for i = 0 to ndigits - 1 do
      let ai = Array.unsafe_get a i in
      (* t <- t + ai * b *)
      let carry = ref 0 in
      for j = 0 to ndigits - 1 do
        let v = Array.unsafe_get t j + (ai * Array.unsafe_get b j) + !carry in
        Array.unsafe_set t j (v land mask);
        carry := v lsr digit_bits
      done;
      let v = t.(ndigits) + !carry in
      t.(ndigits) <- v land mask;
      t.(ndigits + 1) <- t.(ndigits + 1) + (v lsr digit_bits);
      (* q kills the low limb: (t + q*m) mod 2^16 = 0. *)
      let q = (t.(0) * m0') land mask in
      let v0 = t.(0) + (q * Array.unsafe_get m 0) in
      let carry = ref (v0 lsr digit_bits) in
      (* t <- (t + q*m) / 2^16, fused with the shift. *)
      for j = 1 to ndigits - 1 do
        let v = Array.unsafe_get t j + (q * Array.unsafe_get m j) + !carry in
        Array.unsafe_set t (j - 1) (v land mask);
        carry := v lsr digit_bits
      done;
      let v = t.(ndigits) + !carry in
      t.(ndigits - 1) <- v land mask;
      t.(ndigits) <- t.(ndigits + 1) + (v lsr digit_bits);
      t.(ndigits + 1) <- 0
    done;
    (* Result in t[0..16], < 2m: one conditional subtract normalizes. *)
    let r = Array.sub t 0 ndigits in
    if t.(ndigits) <> 0 || ge r m then sub_into ~dst:r r m;
    r

  let create ~modulus =
    if is_zero modulus || modulus.(0) land 1 = 0 then
      invalid_arg "U256.Mont.create: modulus must be odd";
    (* m0' = -m^-1 mod 2^16 by Newton–Hensel lifting: for odd m0 the seed
       m0 is its own inverse mod 8, and each step doubles the bits. *)
    let m0 = modulus.(0) in
    let x = ref m0 in
    for _ = 1 to 4 do
      x := !x * (2 - (m0 * !x)) land mask
    done;
    let m0' = (base - !x) land mask in
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

let map2 f a b = Array.init ndigits (fun i -> f a.(i) b.(i))
let logand a b = map2 ( land ) a b
let logor a b = map2 ( lor ) a b
let logxor a b = map2 ( lxor ) a b
let lognot a = Array.init ndigits (fun i -> a.(i) lxor mask)

let shift_left x k =
  if k < 0 then invalid_arg "U256.shift_left";
  if k >= 256 then zero
  else begin
    let dsh = k / digit_bits and bsh = k mod digit_bits in
    let r = make_zero () in
    for i = ndigits - 1 downto dsh do
      let lo = x.(i - dsh) lsl bsh in
      let hi = if bsh > 0 && i - dsh - 1 >= 0 then x.(i - dsh - 1) lsr (digit_bits - bsh) else 0 in
      r.(i) <- (lo lor hi) land mask
    done;
    r
  end

let shift_right x k =
  if k < 0 then invalid_arg "U256.shift_right";
  if k >= 256 then zero
  else begin
    let dsh = k / digit_bits and bsh = k mod digit_bits in
    let r = make_zero () in
    for i = 0 to ndigits - 1 - dsh do
      let lo = x.(i + dsh) lsr bsh in
      let hi =
        if bsh > 0 && i + dsh + 1 < ndigits then (x.(i + dsh + 1) lsl (digit_bits - bsh)) land mask
        else 0
      in
      r.(i) <- (lo lor hi) land mask
    done;
    r
  end

let bit x i =
  if i < 0 || i >= 256 then false
  else (x.(i / digit_bits) lsr (i mod digit_bits)) land 1 = 1

let bits x =
  let rec top i = if i < 0 then 0 else if x.(i) <> 0 then i else top (i - 1) in
  let i = top (ndigits - 1) in
  if i = 0 && x.(0) = 0 then 0
  else begin
    let rec width n d = if d = 0 then n else width (n + 1) (d lsr 1) in
    (i * digit_bits) + width 0 x.(i)
  end

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

let to_string x =
  if is_zero x then "0"
  else begin
    let buf = Buffer.create 78 in
    let cur = ref (Array.copy x) in
    let chunks = ref [] in
    while not (is_zero !cur) do
      let m = arr_effective_len !cur in
      let q, r = arr_div_digit !cur m 10000 in
      let q256 = make_zero () in
      Array.blit q 0 q256 0 (Stdlib.min (Array.length q) ndigits);
      chunks := r :: !chunks;
      cur := q256
    done;
    (match !chunks with
     | [] -> ()
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%04d" c)) rest);
    Buffer.contents buf
  end

let of_hex s =
  let s = if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')
    then String.sub s 2 (String.length s - 2) else s in
  if s = "" then invalid_arg "U256.of_hex: empty";
  if String.length s > 64 then raise Overflow;
  let r = make_zero () in
  let nibble c = match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "U256.of_hex: bad character"
  in
  let len = String.length s in
  for i = 0 to len - 1 do
    let v = nibble s.[len - 1 - i] in
    r.(i / 4) <- r.(i / 4) lor (v lsl ((i mod 4) * 4))
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
    let buf = Buffer.create 64 in
    let started = ref false in
    for i = ndigits - 1 downto 0 do
      if !started then Buffer.add_string buf (Printf.sprintf "%04x" x.(i))
      else if x.(i) <> 0 then begin
        Buffer.add_string buf (Printf.sprintf "%x" x.(i));
        started := true
      end
    done;
    Buffer.contents buf
  end

let to_bytes_be x =
  let b = Bytes.create 32 in
  for i = 0 to ndigits - 1 do
    let d = x.(ndigits - 1 - i) in
    Bytes.set b (2 * i) (Char.chr (d lsr 8));
    Bytes.set b ((2 * i) + 1) (Char.chr (d land 0xFF))
  done;
  b

let of_bytes_be b =
  let len = Bytes.length b in
  if len = 0 || len > 32 then invalid_arg "U256.of_bytes_be: need 1..32 bytes";
  let r = make_zero () in
  for i = 0 to len - 1 do
    let byte = Char.code (Bytes.get b (len - 1 - i)) in
    r.(i / 2) <- r.(i / 2) lor (byte lsl ((i mod 2) * 8))
  done;
  r

let pp fmt x = Format.pp_print_string fmt (to_string x)
let pp_hex fmt x = Format.fprintf fmt "0x%s" (to_hex x)
