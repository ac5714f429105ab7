(** An undo journal: the one rollback mechanism behind every mutable
    ledger of the simulated mainchain — TokenBank's position table,
    pending deposits and exit claims, and each ERC-20's balances and
    allowances.

    A checkpoint is a {!mark}; {!undo_to} runs the undo actions pushed
    since, newest-first. Ledger values live in {!cell}s, and {!set}
    records a cell's old value only on its {e first} write after the
    newest mark: {!mark} and {!undo_to} each open a new generation, and a
    cell remembers the generation that last recorded it. A balance
    rewritten a thousand times between two checkpoints costs one entry,
    so journal memory is O(cells dirtied in the unconfirmed window), not
    O(writes). Before the first mark nothing is recorded: a ledger never
    checkpointed pays nothing. *)

type t

val create : unit -> t

type 'a cell = private { mutable value : 'a; mutable stamp : int }
(** A journaled storage slot; read [value] directly, write with {!set}. *)

val cell : 'a -> 'a cell

val set : t -> bytes:int -> 'a cell -> 'a -> unit
(** Write a cell, first recording its old value ([bytes] long for
    {!bytes}) if the journal is marked and the cell has not been
    recorded since the newest mark or undo. *)

val recording : t -> bool
(** Whether any mark has been taken. State outside cells records with
    {!push} on every write once this holds. *)

val push : t -> bytes:int -> (unit -> unit) -> unit
(** Append an undo action, counting [bytes] towards {!bytes}. *)

val mark : t -> int
(** The current position — an O(1) checkpoint token. *)

val undo_to : t -> int -> unit
(** Run every undo action pushed since [mark], newest-first. Raises
    [Invalid_argument] on a mark from the future or one already
    released. *)

val release_below : t -> int -> unit
(** Drop the entries older than [mark] once no checkpoint can reach
    them. The mark itself (and any newer one) stays restorable. *)

val length : t -> int
(** Entries currently held. *)

val bytes : t -> int
(** Cumulative bytes pushed since creation — monotone; the delta across
    an operation bounds its checkpoint cost. *)
