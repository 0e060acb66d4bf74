(** Standard Workload Format (SWF) traces.

    The interchange format of the Parallel Workloads Archive: one job per
    line, 18 integer fields, [';'] comment lines. This repository cannot
    ship production traces (DESIGN.md §5), so this module provides the
    format itself — strict line parser and writer — plus a synthetic
    generator with archive-like marginals, making every trace-driven
    experiment reproducible from a seed and portable to real SWF files.
    Whole traces are read, and entries converted to simulator jobs, by
    {!Swf_stream} alone.

    Field reference (1-based as in the specification): 1 job number,
    2 submit time, 3 wait time, 4 run time, 5 allocated processors,
    6 average CPU time, 7 used memory, 8 requested processors,
    9 requested time, 10 requested memory, 11 status, 12 user, 13 group,
    14 application, 15 queue, 16 partition, 17 preceding job,
    18 think time. Unknown values are [-1]. *)

open Resa_core

type entry = {
  job_number : int;
  submit : int;
  wait : int;
  run : int;
  alloc_procs : int;
  avg_cpu : int;
  used_mem : int;
  req_procs : int;
  req_time : int;
  req_mem : int;
  status : int;
  user : int;
  group : int;
  app : int;
  queue : int;
  partition : int;
  preceding : int;
  think_time : int;
}

val default : entry
(** All fields [-1] except [job_number = 0], [submit = 0]. *)

val parse_line : string -> (entry option, string) result
(** [Ok None] for comment and blank lines; [Error _] names the offending
    field. Fields beyond the 18th are tolerated and ignored (some archive
    files carry trailing annotations). *)

val to_line : entry -> string

val to_string : ?comments:string list -> entry list -> string
(** Render a trace, with optional [';']-prefixed header comments. *)

val of_workload : (Job.t * int * int) list -> entry list
(** [(job, submit, start)] triples (e.g. a finished simulation) back to SWF
    entries with [wait = start − submit]. *)

val generate :
  ?overestimate:float -> Prng.t -> m:int -> n:int -> max_runtime:int -> mean_gap:float -> entry list
(** Synthetic archive-like trace: power-of-two-biased widths, log-uniform
    runtimes, Poisson arrivals ({!Resa_gen.Arrivals.poisson}).
    [overestimate] (default 1.0, must be >= 1.0) sets the mean factor by
    which requested walltimes exceed actual runtimes — archive traces
    commonly show factors of 2–10. *)
