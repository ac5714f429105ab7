(** Deterministic fan-out over OCaml 5 domains.

    A fixed pool of worker domains (sized from
    [Domain.recommended_domain_count]) executes batches submitted through
    {!map_list}. Results always come back in submission order and any
    exception raised by a task is re-raised in the caller — the one from
    the lowest task index when several fail, so failures are deterministic
    too. [map_list] calls nest freely: a task may itself call [map_list]
    (the waiting domain helps execute its own batch, so the pool never
    deadlocks). With [domains = 1] (or a single-element list) the map runs
    sequentially in the calling domain with no pool involvement at all. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]: what the hardware offers. *)

val default_domains : unit -> int
(** The job count used when [?domains] is omitted: the value given to
    {!set_default_domains} if any, else {!recommended}. *)

val set_default_domains : int -> unit
(** Override the default job count (the bench harness's [-j N]). Raises
    [Invalid_argument] if [n < 1]. *)

val map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list ?domains f xs] applies [f] to every element of [xs], running
    up to [domains] applications concurrently (default
    {!default_domains}), and returns the results in the order of [xs].
    Tasks are independent: each runs to completion even if a sibling
    raises; afterwards the exception of the lowest-index failing task is
    re-raised with its backtrace. *)

val run_pair : ?domains:int -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [run_pair f g] evaluates two heterogeneous thunks, concurrently when
    [domains > 1]. *)

val shutdown : unit -> unit
(** Join the pool's worker domains. Called automatically [at_exit]; safe
    to call multiple times. After shutdown the pool restarts lazily on
    the next parallel {!map_list}. *)
