(* Keccak-f[1600] with 64-bit lanes; rate 1088 bits (136 bytes), capacity
   512, output 256 bits, multi-rate padding with suffix 0x01.

   The 25 lanes live in a 200-byte buffer, lane x + 5y little-endian at
   byte 8 (x + 5y). Absorbing a block XORs its words into the first 17
   lanes as they are loaded, and the digest is the buffer's first 32
   bytes. The permutation holds the lanes in 25 local Int64 variables,
   runs the 24 rounds with theta, rho-pi and chi written out per lane
   (rotation offsets as literals), and stores them back: it allocates
   nothing. ocamlopt keeps an Int64 local unboxed only while no call
   returns it boxed, so every helper is a top-level [@inline] function
   of this module: a local closure, or a function in another module
   under dune's -opaque dev profile, would box each result.

   One-shot [digest] runs on a domain-local context through the
   streaming [feed]/[finalize] API, so it allocates only its result and
   never copies the input into a padded buffer. *)

let rounds = 24
let rate_bytes = 136
let state_bytes = 200

let round_constants =
  [| 0x0000000000000001L; 0x0000000000008082L; 0x800000000000808aL;
     0x8000000080008000L; 0x000000000000808bL; 0x0000000080000001L;
     0x8000000080008081L; 0x8000000000008009L; 0x000000000000008aL;
     0x0000000000000088L; 0x0000000080008009L; 0x000000008000000aL;
     0x000000008000808bL; 0x800000000000008bL; 0x8000000000008089L;
     0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
     0x000000000000800aL; 0x800000008000000aL; 0x8000000080008081L;
     0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L |]

let[@inline] lane st i = Bytes.get_int64_le st (8 * i)
let[@inline] set_lane st i v = Bytes.set_int64_le st (8 * i) v

(* Lane [i] of the state XOR word [i] of the block at [off] in [src]. *)
let[@inline] mix st src off i =
  Int64.logxor (lane st i) (Bytes.get_int64_le src (off + (8 * i)))

let[@inline] xor5 a b c d e =
  Int64.logxor a (Int64.logxor b (Int64.logxor c (Int64.logxor d e)))

let[@inline] rotl x n =
  Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

(* Theta's delta [d] applied to lane [a], then rho's rotation by [n]. *)
let[@inline] rho a d n = rotl (Int64.logxor a d) n

let[@inline] chi a b c = Int64.logxor a (Int64.logand (Int64.lognot b) c)

(* XOR the rate block at [off] in [src] into the lanes of [st] and run
   Keccak-f[1600]. Pi moves lane x + 5y to y + 5 ((2x + 3y) mod 5), so b_j
   below reads the lane that lands on j; chi then mixes each row of b. *)
let absorb st src off =
  let a0 = ref (mix st src off 0) and a1 = ref (mix st src off 1)
  and a2 = ref (mix st src off 2) and a3 = ref (mix st src off 3)
  and a4 = ref (mix st src off 4) and a5 = ref (mix st src off 5)
  and a6 = ref (mix st src off 6) and a7 = ref (mix st src off 7)
  and a8 = ref (mix st src off 8) and a9 = ref (mix st src off 9)
  and a10 = ref (mix st src off 10) and a11 = ref (mix st src off 11)
  and a12 = ref (mix st src off 12) and a13 = ref (mix st src off 13)
  and a14 = ref (mix st src off 14) and a15 = ref (mix st src off 15)
  and a16 = ref (mix st src off 16) and a17 = ref (lane st 17)
  and a18 = ref (lane st 18) and a19 = ref (lane st 19)
  and a20 = ref (lane st 20) and a21 = ref (lane st 21)
  and a22 = ref (lane st 22) and a23 = ref (lane st 23)
  and a24 = ref (lane st 24) in
  for round = 0 to rounds - 1 do
    (* theta: column parities c, deltas d = c(x-1) xor rotl c(x+1) 1 *)
    let c0 = xor5 !a0 !a5 !a10 !a15 !a20 and c1 = xor5 !a1 !a6 !a11 !a16 !a21
    and c2 = xor5 !a2 !a7 !a12 !a17 !a22 and c3 = xor5 !a3 !a8 !a13 !a18 !a23
    and c4 = xor5 !a4 !a9 !a14 !a19 !a24 in
    let d0 = Int64.logxor c4 (rotl c1 1) and d1 = Int64.logxor c0 (rotl c2 1)
    and d2 = Int64.logxor c1 (rotl c3 1) and d3 = Int64.logxor c2 (rotl c4 1)
    and d4 = Int64.logxor c3 (rotl c0 1) in
    (* rho and pi *)
    let b0 = Int64.logxor !a0 d0 and b1 = rho !a6 d1 44 and b2 = rho !a12 d2 43
    and b3 = rho !a18 d3 21 and b4 = rho !a24 d4 14
    and b5 = rho !a3 d3 28 and b6 = rho !a9 d4 20 and b7 = rho !a10 d0 3
    and b8 = rho !a16 d1 45 and b9 = rho !a22 d2 61
    and b10 = rho !a1 d1 1 and b11 = rho !a7 d2 6 and b12 = rho !a13 d3 25
    and b13 = rho !a19 d4 8 and b14 = rho !a20 d0 18
    and b15 = rho !a4 d4 27 and b16 = rho !a5 d0 36 and b17 = rho !a11 d1 10
    and b18 = rho !a17 d2 15 and b19 = rho !a23 d3 56
    and b20 = rho !a2 d2 62 and b21 = rho !a8 d3 55 and b22 = rho !a14 d4 39
    and b23 = rho !a15 d0 41 and b24 = rho !a21 d1 2 in
    (* chi, and iota on lane 0 *)
    a0 := Int64.logxor (chi b0 b1 b2) (Array.unsafe_get round_constants round);
    a1 := chi b1 b2 b3; a2 := chi b2 b3 b4; a3 := chi b3 b4 b0; a4 := chi b4 b0 b1;
    a5 := chi b5 b6 b7; a6 := chi b6 b7 b8; a7 := chi b7 b8 b9; a8 := chi b8 b9 b5;
    a9 := chi b9 b5 b6;
    a10 := chi b10 b11 b12; a11 := chi b11 b12 b13; a12 := chi b12 b13 b14;
    a13 := chi b13 b14 b10; a14 := chi b14 b10 b11;
    a15 := chi b15 b16 b17; a16 := chi b16 b17 b18; a17 := chi b17 b18 b19;
    a18 := chi b18 b19 b15; a19 := chi b19 b15 b16;
    a20 := chi b20 b21 b22; a21 := chi b21 b22 b23; a22 := chi b22 b23 b24;
    a23 := chi b23 b24 b20; a24 := chi b24 b20 b21
  done;
  set_lane st 0 !a0; set_lane st 1 !a1; set_lane st 2 !a2; set_lane st 3 !a3;
  set_lane st 4 !a4; set_lane st 5 !a5; set_lane st 6 !a6; set_lane st 7 !a7;
  set_lane st 8 !a8; set_lane st 9 !a9; set_lane st 10 !a10; set_lane st 11 !a11;
  set_lane st 12 !a12; set_lane st 13 !a13; set_lane st 14 !a14;
  set_lane st 15 !a15; set_lane st 16 !a16; set_lane st 17 !a17;
  set_lane st 18 !a18; set_lane st 19 !a19; set_lane st 20 !a20;
  set_lane st 21 !a21; set_lane st 22 !a22; set_lane st 23 !a23;
  set_lane st 24 !a24

type ctx = {
  st : Bytes.t; (* 25 lanes, little-endian *)
  buf : Bytes.t; (* one partial rate block *)
  mutable fill : int; (* bytes buffered in [buf] *)
}

let init () =
  { st = Bytes.make state_bytes '\000'; buf = Bytes.create rate_bytes; fill = 0 }

let reset ctx =
  Bytes.fill ctx.st 0 state_bytes '\000';
  ctx.fill <- 0

let feed ctx input =
  let len = Bytes.length input in
  let pos = ref 0 in
  (* Top up a partially filled buffer first. *)
  if ctx.fill > 0 then begin
    let take = Stdlib.min (rate_bytes - ctx.fill) len in
    Bytes.blit input 0 ctx.buf ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := take;
    if ctx.fill = rate_bytes then begin
      absorb ctx.st ctx.buf 0;
      ctx.fill <- 0
    end
  end;
  (* Whole blocks straight from the input, no copy. *)
  while len - !pos >= rate_bytes do
    absorb ctx.st input !pos;
    pos := !pos + rate_bytes
  done;
  if !pos < len then begin
    Bytes.blit input !pos ctx.buf 0 (len - !pos);
    ctx.fill <- len - !pos
  end

let feed_string ctx s = feed ctx (Bytes.unsafe_of_string s)

let finalize ctx =
  (* Multi-rate padding 0x01 .. 0x80 in the tail block. *)
  Bytes.fill ctx.buf ctx.fill (rate_bytes - ctx.fill) '\000';
  Bytes.set ctx.buf ctx.fill '\x01';
  Bytes.set ctx.buf (rate_bytes - 1)
    (Char.chr (Char.code (Bytes.get ctx.buf (rate_bytes - 1)) lor 0x80));
  absorb ctx.st ctx.buf 0;
  let out = Bytes.sub ctx.st 0 32 in
  (* Leave the context ready for the next message. *)
  reset ctx;
  out

(* One-shot digests reuse a domain-local context: [digest] never runs
   re-entrantly (it takes no callbacks), so sharing per domain is safe. *)
let dls_ctx : ctx Domain.DLS.key = Domain.DLS.new_key init

let digest input =
  let ctx = Domain.DLS.get dls_ctx in
  reset ctx;
  feed ctx input;
  finalize ctx

(* [digest] only reads its input, so the string needs no copy. *)
let digest_string s = digest (Bytes.unsafe_of_string s)
let hex s = Hex.of_bytes (digest_string s)
