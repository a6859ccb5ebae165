(** Directory creation for everything that persists under a directory
    the user names (the fitness store, evolution checkpoints). *)

val mkdir_p : string -> unit
(** [mkdir_p dir] creates [dir] and every missing parent (mode 0o755),
    as [mkdir -p] does.  Best effort: a directory that cannot be created
    stays missing, and the caller's first write into it fails and is
    reported there. *)
