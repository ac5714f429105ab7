(* 32-byte content identifiers for transactions, positions and blocks. *)

module type ID = sig
  type t

  val of_hash : bytes -> t
  val to_bytes : t -> bytes

  val write : t -> bytes -> int -> unit
  (** [write id dst off] writes the 32 bytes of [id] into [dst] at [off],
      without the copy [to_bytes] makes. *)

  val to_hex : t -> string
  val short : t -> string
  val equal : t -> t -> bool
  val compare : t -> t -> int

  val hash : t -> int
  (** [Hashtbl.hash (to_bytes id)], without the copy. *)

  val pp : Format.formatter -> t -> unit

  module Map : Map.S with type key = t
  module Set : Set.S with type elt = t
end

module Make () : ID = struct
  type t = bytes

  let of_hash b =
    if Bytes.length b <> 32 then invalid_arg "Ids: need a 32-byte hash";
    b

  let to_bytes t = Bytes.copy t
  let write t dst off = Bytes.blit t 0 dst off 32
  let to_hex t = Amm_crypto.Hex.of_bytes t
  let short t = String.sub (to_hex t) 0 8
  let equal = Bytes.equal
  let compare = Bytes.compare
  let hash (t : t) = Hashtbl.hash t
  let pp fmt t = Format.pp_print_string fmt (short t)

  module Ord = struct
    type nonrec t = t

    let compare = compare
  end

  module Map = Map.Make (Ord)
  module Set = Set.Make (Ord)
end

module Tx_id = Make ()
module Position_id = Make ()
module Block_id = Make ()
