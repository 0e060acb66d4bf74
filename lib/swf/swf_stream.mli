(** The one SWF reader.

    A stream is a pull iterator over the jobs of a trace: each call yields
    the next kept entry already converted to simulator terms, and nothing —
    no line list, no entry list, no job array — is retained behind it. This
    is the input side of the streaming replay path (DESIGN.md §9): a 10M-job
    archive trace flows through the simulator in one pass at flat RSS. The
    batch path is the same stream drained with {!to_list}.

    Every source — file, in-memory text, parsed entries — applies one keep
    filter and one convert-and-check kernel, so no two readers can drift:
    - Entries with neither a positive [run] nor a positive [req_time]
      (jobs cancelled before starting) carry no work and are skipped;
      failed entries ([status = 0]) are kept unless [~keep_failed:false].
    - Width is [req_procs] (falling back to [alloc_procs]) clamped to
      [\[1, m\]]; runtime is [run], at least 1; the walltime estimate is
      [req_time], at least the runtime; submit is clamped to [>= 0].
    - Ids are renumbered consecutively over kept entries; [job_number]
      keeps the archive's own number.
    - A kept entry must be replayable: its submit time is not below the
      previous kept entry's (the SWF standard lists jobs in submit order),
      and neither its submit time nor its walltime exceeds
      {!Resa_core.Instance.max_time}. Otherwise the pull raises
      {!Parse_error}. *)

open Resa_core

type arrival = {
  job : Job.t;  (** Actual runtime and width, id renumbered over kept entries. *)
  submit : int;  (** Clamped to [>= 0]. *)
  estimate : int;  (** Requested walltime, at least [Job.p job]. *)
  job_number : int;  (** Field 1 of the source line — archive provenance. *)
}

type t = unit -> arrival option
(** Pull the next arrival; [None] is end of trace (and is sticky for every
    source defined here). Streams are single-pass and not thread-safe. *)

exception Parse_error of { line : int; msg : string }
(** Raised by pulls on a malformed line or an unreplayable kept entry (see
    above), with its 1-based line number — for {!of_entries}, the entry's
    1-based position in the list. *)

val of_channel : ?keep_failed:bool -> m:int -> in_channel -> t
(** Read lines lazily from a channel. The caller owns the channel and must
    keep it open while pulling ({!with_file} scopes this). [keep_failed]
    defaults to true. *)

val with_file : ?keep_failed:bool -> m:int -> string -> (t -> 'a) -> 'a
(** [with_file path f] opens [path], hands [f] the stream and closes the
    channel when [f] returns or raises. *)

val of_string : ?keep_failed:bool -> m:int -> string -> t
(** Stream over an in-memory trace. *)

val of_entries : ?keep_failed:bool -> m:int -> Swf.entry list -> t
(** Stream over already-parsed or generated entries ({!Swf.generate}),
    through the same kernel as the line-backed sources. *)

val synthetic :
  ?overestimate:float -> Prng.t -> m:int -> n:int -> max_runtime:int -> mean_gap:float -> t
(** Deterministic synthetic trace of [n] jobs drawn one at a time — the
    source behind [resa replay --synthetic], usable at sizes where
    [Swf.generate] would not fit in memory. Marginals match
    [Swf.generate] (power-of-two-biased widths, log-uniform runtimes,
    Poisson arrivals, walltime overestimation factor with the given mean)
    but all draws for job [i] are interleaved at pull time, so for a given
    seed this is its {e own} reproducible family, not bit-equal to the
    materialised generator. Submit times are non-decreasing; job numbers
    are [1..n]. *)

val iter : t -> (arrival -> unit) -> unit
(** Drain the stream, applying [f] to every arrival. *)

val to_list : t -> arrival list
(** Drain into a list — the input of the batch entry
    [Resa_sim.Simulator.run]; memory grows with the trace. *)
