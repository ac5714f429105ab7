(* Reference model for [Amm_crypto.Keccak256]: the earlier implementation
   over an [int64 array] state, whose every lane store boxes, kept verbatim
   below this comment. The keccak256 oracle cases in test_crypto.ml compare
   one-shot and streamed digests against it. *)

module Hex = Amm_crypto.Hex

(* Keccak-f[1600] with 64-bit lanes held in Int64; rate 1088 bits (136 bytes),
   capacity 512, output 256 bits, multi-rate padding with suffix 0x01.

   The permutation runs against a reusable context: the theta/chi lane
   indices and the rho+pi destinations are precomputed tables (no [mod 5]
   in the round loop), and the c/d/b scratch arrays live in the context
   instead of being allocated per call. One-shot [digest] runs on a
   domain-local context through the streaming [feed]/[finalize] API, so
   it neither allocates scratch nor copies the input into a padded
   buffer. *)

let rounds = 24
let rate_bytes = 136

let round_constants =
  [| 0x0000000000000001L; 0x0000000000008082L; 0x800000000000808aL;
     0x8000000080008000L; 0x000000000000808bL; 0x0000000080000001L;
     0x8000000080008081L; 0x8000000000008009L; 0x000000000000008aL;
     0x0000000000000088L; 0x0000000080008009L; 0x000000008000000aL;
     0x000000008000808bL; 0x800000000000008bL; 0x8000000000008089L;
     0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
     0x000000000000800aL; 0x800000008000000aL; 0x8000000080008081L;
     0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L |]

let rotation_offsets =
  (* r[x][y] indexed as offsets.(x + 5*y) *)
  [| 0; 1; 62; 28; 27;
     36; 44; 6; 55; 20;
     3; 10; 43; 25; 39;
     41; 45; 15; 21; 8;
     18; 2; 61; 56; 14 |]

(* Index tables hoisted out of the round loop. For lane i = x + 5y:
   rho+pi writes b.(pi_dst.(i)) from state.(i); chi combines
   b.(i), b.(chi1.(i)), b.(chi2.(i)); theta's d.(x) mixes columns
   (x+4) mod 5 and (x+1) mod 5. *)
let pi_dst =
  Array.init 25 (fun i ->
      let x = i mod 5 and y = i / 5 in
      ((2 * x) + (3 * y)) mod 5 * 5 + y)

let chi1 = Array.init 25 (fun i -> (i / 5 * 5) + ((i + 1) mod 5))
let chi2 = Array.init 25 (fun i -> (i / 5 * 5) + ((i + 2) mod 5))
let prev5 = [| 4; 0; 1; 2; 3 |]
let next5 = [| 1; 2; 3; 4; 0 |]

let rotl64 x n =
  if n = 0 then x
  else Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

type ctx = {
  st : int64 array; (* 25 lanes *)
  c : int64 array; (* theta column parities, 5 *)
  d : int64 array; (* theta deltas, 5 *)
  b : int64 array; (* rho+pi output, 25 *)
  buf : Bytes.t; (* one partial rate block *)
  mutable fill : int; (* bytes buffered in [buf] *)
}

let init () =
  { st = Array.make 25 0L; c = Array.make 5 0L; d = Array.make 5 0L;
    b = Array.make 25 0L; buf = Bytes.create rate_bytes; fill = 0 }

let reset ctx =
  Array.fill ctx.st 0 25 0L;
  ctx.fill <- 0

let keccak_f ctx =
  let state = ctx.st and c = ctx.c and d = ctx.d and b = ctx.b in
  for round = 0 to rounds - 1 do
    (* theta *)
    for x = 0 to 4 do
      Array.unsafe_set c x
        (Int64.logxor (Array.unsafe_get state x)
           (Int64.logxor (Array.unsafe_get state (x + 5))
              (Int64.logxor (Array.unsafe_get state (x + 10))
                 (Int64.logxor (Array.unsafe_get state (x + 15))
                    (Array.unsafe_get state (x + 20))))))
    done;
    for x = 0 to 4 do
      Array.unsafe_set d x
        (Int64.logxor
           (Array.unsafe_get c (Array.unsafe_get prev5 x))
           (rotl64 (Array.unsafe_get c (Array.unsafe_get next5 x)) 1))
    done;
    for i = 0 to 24 do
      Array.unsafe_set state i
        (Int64.logxor (Array.unsafe_get state i) (Array.unsafe_get d (i mod 5)))
    done;
    (* rho + pi *)
    for i = 0 to 24 do
      Array.unsafe_set b (Array.unsafe_get pi_dst i)
        (rotl64 (Array.unsafe_get state i) (Array.unsafe_get rotation_offsets i))
    done;
    (* chi *)
    for i = 0 to 24 do
      Array.unsafe_set state i
        (Int64.logxor (Array.unsafe_get b i)
           (Int64.logand
              (Int64.lognot (Array.unsafe_get b (Array.unsafe_get chi1 i)))
              (Array.unsafe_get b (Array.unsafe_get chi2 i))))
    done;
    (* iota *)
    state.(0) <- Int64.logxor state.(0) (Array.unsafe_get round_constants round)
  done

(* XOR one rate block at [off] in [src] into the state and permute. *)
let absorb ctx src off =
  let st = ctx.st in
  for i = 0 to (rate_bytes / 8) - 1 do
    Array.unsafe_set st i
      (Int64.logxor (Array.unsafe_get st i) (Bytes.get_int64_le src (off + (8 * i))))
  done;
  keccak_f ctx

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
      absorb ctx ctx.buf 0;
      ctx.fill <- 0
    end
  end;
  (* Whole blocks straight from the input, no copy. *)
  while len - !pos >= rate_bytes do
    absorb ctx input !pos;
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
  absorb ctx ctx.buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le out (8 * i) ctx.st.(i)
  done;
  (* Leave the context ready for the next message. *)
  reset ctx;
  out

(* One-shot digests reuse a domain-local context: [digest] never runs
   re-entrantly (it takes no callbacks), so sharing per domain is safe
   and saves the scratch allocations on every call. *)
let dls_ctx : ctx Domain.DLS.key = Domain.DLS.new_key init

let digest input =
  let ctx = Domain.DLS.get dls_ctx in
  reset ctx;
  feed ctx input;
  finalize ctx

let digest_string s = digest (Bytes.of_string s)
let hex s = Hex.of_bytes (digest_string s)
