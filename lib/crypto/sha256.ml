(* FIPS 180-4 SHA-256 over 32-bit words kept in native ints.

   One round function, [rounds], runs the compression from any round and
   any working state. A rotation right by n < 32 of a 32-bit word x is
   bits n..n+31 of the doubled word x lor (x lsl 32) (bit 63, which a
   63-bit int drops, is never among them), so each rotation is one shift.
   Bits above 31 are left in the sums, because additions and xors carry
   only upwards: a round masks only the new a and e, the words it doubles
   next, and the schedule masks each word it adds.

   Two callers start it differently. [compress] runs all 64 rounds of a
   block from the chaining state, behind the streaming [feed]/[finalize]
   API and the one-shot digests on a domain-local context, so hot callers
   pay no per-call scratch allocation and no padded input copy. The
   counter-mode entries hash a fixed 32-byte seed and a 64-bit counter,
   one block whose rounds 0-7 read only the seed: a [midstate] caches the
   state after them, and each counter runs rounds 8-63. *)

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

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

(* Extend message words 0-15 of [w] to the 64-word schedule. *)
let schedule w =
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let xx = x lor (x lsl 32) and yy = y lor (y lsl 32) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16)
       + ((xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3))
       + Array.unsafe_get w (t - 7)
       + ((yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10)))
      land mask32)
  done

(* Rounds [first] to [last] over the schedule [w], from the working state
   a..h held in [s]; leaves the working state after round [last] there.
   Round t reads schedule word t only. *)
let rounds w s first last =
  let a = ref (Array.unsafe_get s 0) and b = ref (Array.unsafe_get s 1) in
  let c = ref (Array.unsafe_get s 2) and d = ref (Array.unsafe_get s 3) in
  let e = ref (Array.unsafe_get s 4) and f = ref (Array.unsafe_get s 5) in
  let g = ref (Array.unsafe_get s 6) and h = ref (Array.unsafe_get s 7) in
  for t = first to last do
    let ee = !e lor (!e lsl 32) in
    let t1 =
      !h
      + ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25))
      + (!g lxor (!e land (!f lxor !g)))
      + Array.unsafe_get k t + Array.unsafe_get w t
    in
    let aa = !a lor (!a lsl 32) in
    let t2 =
      ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22))
      + ((!a land (!b lor !c)) lor (!b land !c))
    in
    h := !g; g := !f; f := !e;
    e := (!d + t1) land mask32;
    d := !c; c := !b; b := !a;
    a := (t1 + t2) land mask32
  done;
  Array.unsafe_set s 0 !a; Array.unsafe_set s 1 !b;
  Array.unsafe_set s 2 !c; Array.unsafe_set s 3 !d;
  Array.unsafe_set s 4 !e; Array.unsafe_set s 5 !f;
  Array.unsafe_set s 6 !g; Array.unsafe_set s 7 !h

type ctx = {
  h : int array; (* 8 chaining words *)
  w : int array; (* 64-entry message schedule *)
  s : int array; (* 8-word working state *)
  buf : Bytes.t; (* one partial block *)
  mutable fill : int; (* bytes buffered in [buf] *)
  mutable total : int; (* total message bytes fed so far *)
}

let init () =
  { h = Array.copy iv; w = Array.make 64 0; s = Array.make 8 0;
    buf = Bytes.create block_bytes; fill = 0; total = 0 }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.fill <- 0;
  ctx.total <- 0

let load_word src off = Int32.to_int (Bytes.get_int32_be src off) land mask32

(* Compress the 64-byte block at [off] in [src] into the chaining state. *)
let compress ctx src off =
  let h = ctx.h and w = ctx.w and s = ctx.s in
  for t = 0 to 15 do
    Array.unsafe_set w t (load_word src (off + (4 * t)))
  done;
  schedule w;
  Array.blit h 0 s 0 8;
  rounds w s 0 63;
  for i = 0 to 7 do
    Array.unsafe_set h i
      ((Array.unsafe_get h i + Array.unsafe_get s i) land mask32)
  done

let feed_sub ctx input off len =
  if off < 0 || len < 0 || off > Bytes.length input - len then
    invalid_arg "Sha256.feed_sub: range outside the input";
  ctx.total <- ctx.total + len;
  let stop = off + len in
  let pos = ref off in
  if ctx.fill > 0 then begin
    let take = Stdlib.min (block_bytes - ctx.fill) len in
    Bytes.blit input off ctx.buf ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := off + take;
    if ctx.fill = block_bytes then begin
      compress ctx ctx.buf 0;
      ctx.fill <- 0
    end
  end;
  while stop - !pos >= block_bytes do
    compress ctx input !pos;
    pos := !pos + block_bytes
  done;
  if !pos < stop then begin
    Bytes.blit input !pos ctx.buf 0 (stop - !pos);
    ctx.fill <- stop - !pos
  end

let feed ctx input = feed_sub ctx input 0 (Bytes.length input)

let feed_string ctx s = feed ctx (Bytes.unsafe_of_string s)

let finalize ctx =
  (* Padding: 0x80, zeros, 64-bit big-endian bit length. *)
  Bytes.set ctx.buf ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > block_bytes - 8 then begin
    Bytes.fill ctx.buf ctx.fill (block_bytes - ctx.fill) '\000';
    compress ctx ctx.buf 0;
    ctx.fill <- 0
  end;
  Bytes.fill ctx.buf ctx.fill (block_bytes - 8 - ctx.fill) '\000';
  Bytes.set_int64_be ctx.buf (block_bytes - 8) (Int64.of_int (ctx.total * 8));
  compress ctx ctx.buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  reset ctx;
  out

(* One-shot digests and counter blocks on a domain-local context: none of
   them takes a callback, so they never run re-entrantly on a domain. *)
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

(* Counter mode: [seed ‖ le64 n] is 40 bytes, so its digest is one block.
   Message words 0-7 are the seed and 8-9 the byte-swapped counter; 0x80,
   zero padding and the 320-bit length make words 10-15 constant. A
   midstate holds seed words 0-7, then the working state after rounds
   0-7, which read nothing else. *)
type midstate = int array

let midstate seed =
  if Bytes.length seed <> 32 then invalid_arg "Sha256.midstate: seed must be 32 bytes";
  let m = Array.make 16 0 in
  for t = 0 to 7 do
    m.(t) <- load_word seed (4 * t)
  done;
  let s = Array.copy iv in
  rounds m s 0 7;
  Array.blit s 0 m 8 8;
  m

(* The big-endian word of the four low bytes of [x] taken little-endian. *)
let swap_word x =
  ((x land 0xFF) lsl 24) lor ((x land 0xFF00) lsl 8)
  lor ((x lsr 8) land 0xFF00) lor ((x lsr 24) land 0xFF)

(* Runs the block for counter [n] and leaves its final working state in the
   domain-local [s]; digest word i is [iv.(i) + s.(i)] mod 2^32. *)
let counter_state m n =
  let ctx = Domain.DLS.get dls_ctx in
  let w = ctx.w and s = ctx.s in
  Array.blit m 0 w 0 8;
  Array.unsafe_set w 8 (swap_word n);
  Array.unsafe_set w 9 (swap_word (n lsr 32));
  Array.unsafe_set w 10 0x80000000;
  Array.fill w 11 4 0;
  Array.unsafe_set w 15 320;
  schedule w;
  Array.blit m 8 s 0 8;
  rounds w s 8 63;
  s

let counter_56 m n =
  let s = counter_state m n in
  (((Array.unsafe_get iv 0 + Array.unsafe_get s 0) land mask32) lsl 24)
  lor (((Array.unsafe_get iv 1 + Array.unsafe_get s 1) land mask32) lsr 8)

let counter_into m n dst off =
  if off < 0 || off > Bytes.length dst - 32 then
    invalid_arg "Sha256.counter_into: no 32 bytes at offset";
  let s = counter_state m n in
  for i = 0 to 7 do
    Bytes.set_int32_be dst (off + (4 * i))
      (Int32.of_int (Array.unsafe_get iv i + Array.unsafe_get s i))
  done
