module U256 = Amm_math.U256

type op = Op_swap | Op_mint | Op_burn | Op_collect

let envelope_size = 110
let selector_size = 4
let word_size = 32

let word v = U256.to_bytes_be v

let int_word n = word (U256.of_int n)

let address_word a =
  let b = Bytes.make word_size '\000' in
  Bytes.blit (Address.to_bytes a) 0 b 12 20;
  b

let bytes32_word h =
  if Bytes.length h <> 32 then invalid_arg "Encoding.bytes32_word";
  Bytes.copy h

let write_word v dst off = U256.write_be v dst off

(* Two's complement: a negative n sign-extends its 64-bit form. *)
let write_int_word n dst off =
  Bytes.fill dst off 24 (if n < 0 then '\xff' else '\000');
  Bytes.set_int64_be dst (off + 24) (Int64.of_int n)

let write_address_word a dst off =
  Bytes.fill dst off 12 '\000';
  Address.write a dst (off + 12)

(* Router overhead (ABI offsets, array headers, command strings, permit
   blobs). Word/byte counts are calibrated so that envelope + selector +
   genuine fields + padding reproduces the measured averages:
   Table 8 (universal router, production Ethereum):
     swap 1007.83 B, mint 814.49 B, burn 907.07 B, collect 921.80 B
   Table 7 (simple router, Sepolia):
     swap 365.27 B, mint 565.55 B, burn 280.21 B, collect 150.18 B.
   Genuine field words: swap 7, mint 7, burn 5, collect 5 (see Tx). *)
let universal_router_padding = function
  | Op_swap -> (20, 30)
  | Op_mint -> (14, 28)
  | Op_burn -> (19, 25)
  | Op_collect -> (20, 8)

let transaction_wire ~op:_ ~fields ~padding:(pad_words, pad_bytes) =
  let buf = Buffer.create 512 in
  (* Envelope placeholder: nonce/gas/to/value/signature of a legacy tx. *)
  Buffer.add_bytes buf (Bytes.make envelope_size '\xee');
  Buffer.add_bytes buf (Bytes.make selector_size '\xab');
  List.iter (Buffer.add_bytes buf) fields;
  Buffer.add_bytes buf (Bytes.make (pad_words * word_size) '\000');
  Buffer.add_bytes buf (Bytes.make pad_bytes '\000');
  Buffer.to_bytes buf

let genuine_words = function Op_swap -> 7 | Op_mint -> 7 | Op_burn | Op_collect -> 5

let size_with padding op =
  let pad_words, pad_bytes = padding op in
  envelope_size + selector_size + ((genuine_words op + pad_words) * word_size) + pad_bytes

(* Sepolia's observed collect (150.18 B) is below even our 5 genuine words;
   the simple router elides fields there, so the baseline sizes are modeled
   directly from the measured table. *)
let sepolia_op_size = function
  | Op_swap -> 365
  | Op_mint -> 566
  | Op_burn -> 280
  | Op_collect -> 150

let ethereum_op_size op = size_with universal_router_padding op
