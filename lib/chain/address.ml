type t = bytes (* exactly 20 bytes *)

let of_bytes b =
  if Bytes.length b <> 20 then invalid_arg "Address.of_bytes: need 20 bytes";
  Bytes.copy b

let of_public_key pk =
  let h = Amm_crypto.Keccak256.digest (Amm_crypto.Bls.public_key_to_bytes pk) in
  Bytes.sub h 12 20

let of_label label = Bytes.sub (Amm_crypto.Keccak256.digest_string label) 12 20
let to_bytes t = Bytes.copy t
let write t dst off = Bytes.blit t 0 dst off 20
let to_hex t = "0x" ^ Amm_crypto.Hex.of_bytes t
let equal = Bytes.equal
let compare = Bytes.compare
let hash (t : t) = Hashtbl.hash t
let pp fmt t = Format.pp_print_string fmt (to_hex t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
