module U256 = Amm_math.U256

type t = { seed : bytes; mid : Sha256.midstate; mutable counter : int }

let of_seed seed = { seed; mid = Sha256.midstate seed; counter = 0 }
let create seed = of_seed (Sha256.digest_string seed)
let split t label = of_seed (Sha256.concat [ t.seed; Bytes.of_string ("/" ^ label) ])

(* The next block's counter; advances the generator past it. *)
let next t =
  let n = t.counter in
  t.counter <- n + 1;
  n

let bytes t n =
  let out = Bytes.create n in
  let whole = n / 32 in
  for i = 0 to whole - 1 do
    Sha256.counter_into t.mid (next t) out (32 * i)
  done;
  if n mod 32 > 0 then begin
    let blk = Bytes.create 32 in
    Sha256.counter_into t.mid (next t) blk 0;
    Bytes.blit blk 0 out (32 * whole) (n mod 32)
  end;
  out

let u256 t =
  let blk = Bytes.create 32 in
  Sha256.counter_into t.mid (next t) blk 0;
  U256.read_be blk 0

let field t = Field.of_u256 (u256 t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* 56 uniform bits; modulo bias is negligible for the bounds used in the
     simulation (all far below 2^31). *)
  Sha256.counter_56 t.mid (next t) mod n

let float t =
  float_of_int (Sha256.counter_56 t.mid (next t) land ((1 lsl 53) - 1))
  /. float_of_int (1 lsl 53)

let bool t = int t 2 = 1

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
