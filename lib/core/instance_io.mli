(** Plain-text instance files.

    A tiny line-oriented format used by the CLI and the examples:

    {v
    # comment
    m 8
    job 5 2        # duration processors
    res 4 3 6      # start duration processors
    v}

    Jobs and reservations are numbered in order of appearance. *)

val to_string : Instance.t -> string

val of_string : string -> (Instance.t, string) result
(** Errors carry 1-based line numbers. A job runtime or reservation end
    past {!Instance.max_time} is an error at its line. *)

val read_file : string -> (Instance.t, string) result

val write_file : string -> Instance.t -> unit
