(** Key interning: a bijection between keys (addresses, position ids)
    and dense integer indices, in first-seen order.

    The dense index is what lets the rest of the flat-store layer drop
    per-entry boxing: a registry index doubles as a {!Slab} row number,
    so "the state of key [k]" is a row offset instead of a hash-table
    hit on a 20- or 32-byte key. Indices are never reused — a key keeps
    its index for the lifetime of the registry. *)

module Make (K : sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end) : sig
  type t

  val create : ?capacity:int -> unit -> t
  val count : t -> int

  val intern : t -> K.t -> int
  (** The key's index, assigning the next free one on first sight. A
      key already seen costs no allocation beyond what [K.hash] makes. *)

  val find : t -> K.t -> int option
  val mem : t -> K.t -> bool

  val key : t -> int -> K.t
  (** Raises [Invalid_argument] if the index was never assigned. *)

  val iteri : t -> (int -> K.t -> unit) -> unit
  (** In index (= first-seen) order. *)

  val fold : t -> init:'a -> f:('a -> int -> K.t -> 'a) -> 'a
  (** In index order. *)
end
