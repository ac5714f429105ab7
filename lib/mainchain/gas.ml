let tx_base = 21_000
let sstore_word = 22_100
let sstore_update = 5_000
let sload = 2_100
let calldata_nonzero_byte = 16
let calldata_zero_byte = 4
let keccak_base = 30
let keccak_per_word = 6
let ec_mul = 6_000
let pairing_check = 113_000
let payout_transfer = 15_771

let keccak_cost n = keccak_base + (keccak_per_word * ((n + 31) / 32))

let calldata_cost_of_size n =
  (* Measured Uniswap calldata runs about two nonzero bytes per zero byte. *)
  n * ((2 * calldata_nonzero_byte) + calldata_zero_byte) / 3

type meter = { mutable items : (string * int) list; mutable total : int }

let meter () = { items = []; total = 0 }

let charge m label amount =
  m.total <- m.total + amount;
  (* Merge into the label's first occurrence so the breakdown keeps the
     original charge order. *)
  let rec update = function
    | [] -> [ (label, amount) ]
    | (l, v) :: rest when l = label -> (l, v + amount) :: rest
    | item :: rest -> item :: update rest
  in
  m.items <- update m.items

let total m = m.total
let breakdown m = m.items
