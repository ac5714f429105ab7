module U256 = Amm_math.U256

(* Ideal-group model: an element is its discrete log w.r.t. the group
   generator. The phantom types keep G1/G2/GT apart at compile time. *)
type g1 = Field.t
type g2 = Field.t
type gt = Field.t

let g1_generator = Field.one
let g2_generator = Field.one
let g1_zero = Field.zero
let g2_zero = Field.zero

let g1_mul p s = Field.mul p s
let g2_mul p s = Field.mul p s
let g1_add a b = Field.add a b
let g2_add a b = Field.add a b
let g1_equal = Field.equal
let g2_equal = Field.equal
let gt_equal = Field.equal

let hash_to_g1_uncached msg = Field.of_u256 (U256.of_bytes_be (Keccak256.digest msg))

(* Hash-to-point is called with the same message over and over on the
   signing path — every committee member partial-signs the identical
   epoch summary, and the combine/verify steps hash it again — so a
   small domain-local memo turns all but the first call per (domain,
   message) into a table lookup. Keyed by an immutable string copy of
   the message (callers may reuse their buffer); bounded so adversarial
   message streams cannot grow it without limit. *)
let memo_cap = 1 lsl 12

let memo_key : (string, Field.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let hash_to_g1 msg =
  let tbl = Domain.DLS.get memo_key in
  let key = Bytes.to_string msg in
  match Hashtbl.find_opt tbl key with
  | Some p -> p
  | None ->
    let p = hash_to_g1_uncached msg in
    if Hashtbl.length tbl >= memo_cap then Hashtbl.reset tbl;
    Hashtbl.add tbl key p;
    p

let pairing (p : g1) (q : g2) : gt = Field.mul p q

(* Serializations pad the discrete log to the real curve's uncompressed
   sizes so byte accounting matches BN256 (64 B G1 points, 128 B G2). *)
let element_to_bytes size x =
  let b = Bytes.make size '\000' in
  U256.write_be (Field.to_u256 x) b (size - 32);
  b

let element_of_bytes size b =
  if Bytes.length b <> size then invalid_arg "Group.element_of_bytes: bad length";
  Field.of_u256 (U256.read_be b (size - 32))

let g1_to_bytes = element_to_bytes 64
let g2_to_bytes = element_to_bytes 128
let g1_of_bytes = element_of_bytes 64
let g2_of_bytes = element_of_bytes 128
