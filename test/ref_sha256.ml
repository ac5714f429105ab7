(* Reference model for [Amm_crypto.Sha256]: the earlier byte-at-a-time
   implementation, kept verbatim below this comment. The oracle cases in
   test_crypto.ml compare digests, streaming and every [Rng] entry point
   against it. *)

module Hex = Amm_crypto.Hex

(* FIPS 180-4 SHA-256 over 32-bit words; words are kept in native ints and
   masked to 32 bits after every operation.

   The compression function runs against a reusable context (hash state,
   message schedule and one partial block), exposed both as a streaming
   [feed]/[finalize] API and as one-shot digests on a domain-local
   context — so hot callers like the Merkle tree builder and the
   deterministic RNG pay no per-call scratch allocation and no padded
   input copy. *)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let mask32 = 0xFFFFFFFF
let block_bytes = 64
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

type ctx = {
  h : int array; (* 8 chaining words *)
  w : int array; (* 64-entry message schedule *)
  buf : Bytes.t; (* one partial block *)
  mutable fill : int; (* bytes buffered in [buf] *)
  mutable total : int; (* total message bytes fed so far *)
}

let init () =
  { h = Array.copy iv; w = Array.make 64 0; buf = Bytes.create block_bytes;
    fill = 0; total = 0 }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.fill <- 0;
  ctx.total <- 0

(* Compress the 64-byte block at [off] in [src] into the chaining state. *)
let compress ctx src off =
  let h = ctx.h and w = ctx.w in
  for t = 0 to 15 do
    Array.unsafe_set w t
      ((Char.code (Bytes.get src (off + (4 * t))) lsl 24)
      lor (Char.code (Bytes.get src (off + (4 * t) + 1)) lsl 16)
      lor (Char.code (Bytes.get src (off + (4 * t) + 2)) lsl 8)
      lor Char.code (Bytes.get src (off + (4 * t) + 3)))
  done;
  for t = 16 to 63 do
    let w15 = Array.unsafe_get w (t - 15) and w2 = Array.unsafe_get w (t - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
      land mask32)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 =
      (!hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t) land mask32
    in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask32 in
    hh := !g; g := !f; f := !e;
    e := (!d + t1) land mask32;
    d := !c; c := !b; b := !a;
    a := (t1 + t2) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

let feed ctx input =
  let len = Bytes.length input in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  if ctx.fill > 0 then begin
    let take = Stdlib.min (block_bytes - ctx.fill) len in
    Bytes.blit input 0 ctx.buf ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := take;
    if ctx.fill = block_bytes then begin
      compress ctx ctx.buf 0;
      ctx.fill <- 0
    end
  end;
  while len - !pos >= block_bytes do
    compress ctx input !pos;
    pos := !pos + block_bytes
  done;
  if !pos < len then begin
    Bytes.blit input !pos ctx.buf 0 (len - !pos);
    ctx.fill <- len - !pos
  end

let feed_string ctx s = feed ctx (Bytes.unsafe_of_string s)

let finalize ctx =
  (* Padding: 0x80, zeros, 64-bit big-endian bit length. *)
  let bitlen = ctx.total * 8 in
  Bytes.set ctx.buf ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > block_bytes - 8 then begin
    Bytes.fill ctx.buf ctx.fill (block_bytes - ctx.fill) '\000';
    compress ctx ctx.buf 0;
    ctx.fill <- 0
  end;
  Bytes.fill ctx.buf ctx.fill (block_bytes - ctx.fill) '\000';
  for i = 0 to 7 do
    Bytes.set ctx.buf (block_bytes - 1 - i)
      (Char.chr ((bitlen lsr (8 * i)) land 0xFF))
  done;
  compress ctx ctx.buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let h = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((h lsr 24) land 0xFF));
    Bytes.set out ((4 * i) + 1) (Char.chr ((h lsr 16) land 0xFF));
    Bytes.set out ((4 * i) + 2) (Char.chr ((h lsr 8) land 0xFF));
    Bytes.set out ((4 * i) + 3) (Char.chr (h land 0xFF))
  done;
  reset ctx;
  out

(* One-shot digests on a domain-local context: [digest]/[concat] take no
   callbacks, so they never run re-entrantly on a domain. *)
let dls_ctx : ctx Domain.DLS.key = Domain.DLS.new_key init

let digest input =
  let ctx = Domain.DLS.get dls_ctx in
  reset ctx;
  feed ctx input;
  finalize ctx

let digest_string s = digest (Bytes.of_string s)
let hex s = Hex.of_bytes (digest_string s)

let concat parts =
  (* Digest of the concatenation, streamed — no intermediate copy. *)
  let ctx = Domain.DLS.get dls_ctx in
  reset ctx;
  List.iter (fun p -> feed ctx p) parts;
  finalize ctx
