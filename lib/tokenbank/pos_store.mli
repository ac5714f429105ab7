(** TokenBank's open-position table on a flat store.

    Entries live in a {!Flatstore.Slab} (one 256-byte row per position,
    no per-entry boxing); a {!Flatstore.Registry} maps position ids to
    rows. Deletion clears a row's live flag — rows and id bindings are
    never recycled, so an undo journal can restore any prior state by
    replaying row images backwards.

    The {!Flatstore.Journal} is what makes TokenBank checkpoints
    O(dirty): a checkpoint is just the current {!mark}, each write after
    the first mark copies the row's pre-image, and {!undo_to} rewinds
    exactly the rows written since.
    {!journal_bytes} exposes the cumulative bytes copied, so tests can
    assert the bound. *)

module Position_id = Chain.Ids.Position_id

type t

val create : unit -> t

val length : t -> int
(** Live (non-deleted) entries. *)

val find : t -> Position_id.t -> Sync_payload.position_entry option
(** Entries come back with [deleted = false]; deleted positions are
    simply absent. *)

val set : t -> Sync_payload.position_entry -> unit
(** Insert or overwrite, keyed by the entry's [pos_id]. *)

val remove : t -> Position_id.t -> unit

val iter : t -> (Sync_payload.position_entry -> unit) -> unit
(** In insertion (row) order — deterministic across runs. *)

val fold : t -> init:'a -> f:('a -> Sync_payload.position_entry -> 'a) -> 'a

(** {1 Undo journal} *)

val mark : t -> int
(** The current journal position — an O(1) checkpoint token. *)

val undo_to : t -> int -> unit
(** Rewind every mutation made since [mark] was taken. Raises
    [Invalid_argument] on a mark from the future or a released one. *)

val release_below : t -> int -> unit
(** Drop journal entries older than [mark] once no checkpoint can reach
    them — keeps long runs from accumulating history. *)

val journal_bytes : t -> int
(** Cumulative row bytes copied into the journal since creation —
    monotone; the difference across an operation bounds its checkpoint
    cost. *)

val row_bytes : t -> int

(** {1 Audit surface}

    The twin's differential audit compares exactly the rows written
    since the last {!clear_dirty} — O(dirty), not O(positions). Row
    images carry no row index, so two stores that applied the same
    entry sequence have byte-identical images per position id. *)

val row_image : t -> Position_id.t -> bytes option
(** The raw 256-byte row for a position id, deleted rows included
    (their stale field bytes are part of the deterministic surface);
    [None] for an id that never had a row. *)

val dirty_ids : t -> Position_id.t list
(** Ids whose rows were written since the last {!clear_dirty}, in row
    (first-seen) order — deterministic across runs. *)

val clear_dirty : t -> unit

val corrupt_bit : t -> index:int -> bit:int -> Position_id.t option
(** Flips one bit in the row selected by [index mod rows] (fault
    injection); returns the affected id, or [None] on an empty store.
    The row is marked dirty — corruption hits the same audit surface
    as a legitimate write. Deliberately bypasses the undo journal: a
    silent corruption is not a transaction. *)

(** {1 Binary codec}

    Live entries only: [n : u32be] then per entry a 32-byte id followed
    by the raw row. Decode→encode is byte-identical. *)

type error = Flatstore.Slab.error =
  | Truncated of { need : int; got : int }
  | Bad_header of string
  | Length_mismatch of { expected : int; got : int }
      (** Same shape as {!Flatstore.Slab.error} — both codecs fail the
          same ways on torn or malformed buffers. *)

val error_to_string : error -> string

val to_bytes : t -> bytes

val of_bytes : bytes -> (t, error) result
(** Total: never raises. Untrusted buffers (snapshot files) go here. *)

val of_bytes_exn : bytes -> t
(** Raises [Invalid_argument] with the rendered error. *)
