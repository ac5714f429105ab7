(** Binary-safe file plumbing for the durability layer (Stdlib only). *)

val read_file : string -> bytes

val write_file : string -> bytes -> unit
(** Plain overwrite — only for deliberate in-place corruption (torn-write
    injection); real writes go through {!write_atomic}. *)

val write_atomic : string -> bytes -> unit
(** Write to [path ^ ".tmp"], then rename over [path]: readers see the
    old complete file or the new complete file, never a prefix. *)

val mkdir_p : string -> unit

val files_matching : dir:string -> prefix:string -> suffix:string -> string list
(** Basenames under [dir] matching both affixes, sorted; [[]] when [dir]
    is missing. *)

val remove_if_exists : string -> unit

val with_temp_dir : string -> (string -> 'a) -> 'a
(** [with_temp_dir prefix f] makes a fresh empty directory under the
    system temp dir, named after [prefix], applies [f] to its path, and
    removes the directory and everything in it when [f] returns or
    raises. *)
