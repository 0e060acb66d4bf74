(* resa: command-line front end.

   Subcommands:
     generate   emit an instance file from one of the built-in families
     solve      run a scheduling algorithm on an instance file
     simulate   online simulation of an SWF trace under a chosen policy
                (--trace/--chrome/--csv export the observability streams)
     replay     constant-memory streaming replay of a (synthetic or SWF)
                trace: incremental metrics, timeline history GC, flat RSS
     explain    replay a JSONL event trace: per job, why it started when it did
     top        live terminal view of a heartbeat stream (replay --heartbeat)
     benchdiff  regression gate over two bench trajectory JSON files
     trace      emit a synthetic Standard Workload Format trace
     bounds     print the Figure 4 bound curves for a list of alphas
     info       summarise an instance file (bounds, alpha interval, profile)

   Experiments that regenerate the paper's figures live in the benchmark
   harness: `dune exec bench/main.exe [fig1..fig4 t1..t5 ablation perf]`. *)

open Cmdliner
open Resa_core
open Resa_algos

(* ------------------------------------------------------------------ *)
(* input boundary                                                      *)
(* ------------------------------------------------------------------ *)

(* Exit codes, declared once: every verb's manual lists them, and the
   handler at the bottom of this file is the only place that turns an
   exception into one. *)
let gate_failed = 1
let input_rejected = 2
let self_check_failed = 3

let exits =
  Cmd.Exit.
    [ info ok ~doc:"on success.";
      info gate_failed ~doc:"when a gate failed (benchdiff regression, replay allocation budget).";
      info input_rejected ~doc:"when an input was rejected; the $(b,error:) line names the cause.";
      info self_check_failed ~doc:"when solve's feasibility self-check failed (a bug).";
      info cli_error ~doc:"on command line parsing errors, unknown names included.";
      info internal_error ~doc:"on unexpected internal errors (bugs)." ]

(* A file parsed here (instance, JSONL trace, bench rows) is malformed. *)
exception Rejected of string

(* The one converter for every name-valued argument: case-insensitive,
   with [seeded] naming the choices spelled NAME:SEED. An unknown name is
   a usage error (exit 124) that lists the valid ones. *)
let named ~what ?(seeded = []) choices =
  let parse s =
    let key = String.lowercase_ascii s in
    let with_seed (name, make) =
      match String.split_on_char ':' key with
      | [ n; seed ] when n = name -> Option.map make (int_of_string_opt seed)
      | _ -> None
    in
    match (List.assoc_opt key choices, List.find_map with_seed seeded) with
    | Some v, _ | None, Some v -> Ok v
    | None, None ->
      let names = List.map fst choices @ List.map (fun (name, _) -> name ^ ":SEED") seeded in
      Error (`Msg (Printf.sprintf "unknown %s %S, expected one of: %s" what s (String.concat ", " names)))
  and print ppf v =
    Format.pp_print_string ppf
      (match List.find_opt (fun (_, c) -> c == v) choices with Some (name, _) -> name | None -> "?")
  in
  Arg.conv ~docv:"VAL" (parse, print)

(* ------------------------------------------------------------------ *)
(* shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (reproducible).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel sections (overrides $(b,RESA_DOMAINS); results are \
           identical at any value).")

let policy_arg =
  let policies =
    Resa_sim.Policy.
      [ ("all", all); ("fcfs", [ fcfs ]); ("easy", [ easy ]); ("cons", [ conservative ]);
        ("conservative", [ conservative ]); ("lsrc", [ aggressive ]); ("aggressive", [ aggressive ]) ]
  in
  Arg.(
    value
    & opt (named ~what:"policy" policies) Resa_sim.Policy.all
    & info [ "policy" ] ~doc:"all, fcfs, easy, cons or lsrc.")

let swf_rule_doc =
  Printf.sprintf
    "Jobs must be listed in non-decreasing submit order, as the SWF standard lists them, with \
     submit times and requested walltimes at most %d; a line that breaks either rule is \
     rejected with its line number (exit 2)."
    Instance.max_time

let read_instance path =
  match if path = "-" then Instance_io.of_string (In_channel.input_all stdin) else Instance_io.read_file path with
  | Ok inst -> inst
  | Error msg -> raise (Rejected msg)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate family k m len c n alpha pmax seed =
  let rng = Prng.create ~seed in
  let known_opt = ref None in
  let inst =
    match family with
    | `Prop2 ->
      let inst, opt = Resa_gen.Adversarial.prop2 ~k in
      known_opt := Some opt;
      inst
    | `Graham ->
      let inst, opt = Resa_gen.Adversarial.graham_tight ~m in
      known_opt := Some opt;
      inst
    | `Fcfs_bad ->
      let inst, opt = Resa_gen.Adversarial.fcfs_bad ~m ~len in
      known_opt := Some opt;
      inst
    | `Fig2 -> Resa_gen.Adversarial.figure2_example ()
    | `Packed ->
      let p = Resa_gen.Packed.generate rng ~m ~c ~target_jobs:n ~reservation_fraction:0.2 () in
      known_opt := Some p.optimal;
      p.instance
    | `Random -> Resa_gen.Random_inst.alpha_restricted rng ~m ~n ~alpha ~pmax ()
    | `Workload -> Resa_gen.Random_inst.cluster_workload rng ~m ~n ~max_runtime:pmax
  in
  (match !known_opt with Some v -> Printf.printf "# optimal %d\n" v | None -> ());
  print_string (Instance_io.to_string inst)

let generate_cmd =
  let family =
    let families =
      [ ("prop2", `Prop2); ("graham", `Graham); ("fcfs-bad", `Fcfs_bad); ("fig2", `Fig2);
        ("packed", `Packed); ("random", `Random); ("workload", `Workload) ]
    in
    Arg.(
      value
      & pos 0 (named ~what:"family" families) `Random
      & info [] ~docv:"FAMILY"
          ~doc:"One of: prop2, graham, fcfs-bad, fig2, packed, random, workload.")
  in
  let k = Arg.(value & opt int 4 & info [ "k" ] ~doc:"Parameter k of the prop2 family.") in
  let m = Arg.(value & opt int 8 & info [ "m" ] ~doc:"Number of machines.") in
  let len = Arg.(value & opt int 20 & info [ "len" ] ~doc:"Narrow-job length (fcfs-bad).") in
  let c = Arg.(value & opt int 20 & info [ "c" ] ~doc:"Target optimal makespan (packed).") in
  let n = Arg.(value & opt int 12 & info [ "n" ] ~doc:"Number of jobs.") in
  let alpha = Arg.(value & opt float 0.5 & info [ "alpha" ] ~doc:"Alpha restriction (random).") in
  let pmax = Arg.(value & opt int 10 & info [ "pmax" ] ~doc:"Maximum job duration.") in
  Cmd.v
    (Cmd.info "generate" ~exits ~doc:"Emit an instance file from a built-in family")
    Term.(const generate $ family $ k $ m $ len $ c $ n $ alpha $ pmax $ seed_arg)

(* ------------------------------------------------------------------ *)
(* solve                                                               *)
(* ------------------------------------------------------------------ *)

let solve path algo priority show_gantt width =
  let inst = read_instance path in
  let name, sched =
    match algo with
    | `Lsrc -> ("LSRC", Lsrc.run ~priority inst)
    | `Fcfs -> ("FCFS", Fcfs.run ~priority inst)
    | `Easy -> ("EASY", Backfill.easy ~priority inst)
    | `Cons -> ("CONS", Backfill.conservative ~priority inst)
    | `Nfdh -> ("NFDH", Shelf.run Shelf.Nfdh inst)
    | `Ffdh -> ("FFDH", Shelf.run Shelf.Ffdh inst)
    | `Bnb ->
      let r = Resa_exact.Bnb.solve inst in
      ((if r.optimal then "OPT" else "B&B(budget hit)"), r.schedule)
    | `Dp ->
      let sched, _ = Resa_exact.Single_machine.solve inst in
      ("OPT(dp)", sched)
    | `Preemptive ->
      (* Preemptive optimum reported on its own (it has no Schedule.t). *)
      let r = Preemptive.optimal inst in
      Printf.printf "preemptive optimal makespan: %d\n" r.makespan;
      Array.iteri
        (fun i l ->
          Printf.printf "  J%d:" i;
          List.iter (fun (lo, hi) -> Printf.printf " [%d,%d)" lo hi) l;
          print_newline ())
        r.intervals;
      exit 0
  in
  (match Schedule.validate inst sched with
  | Ok () -> ()
  | Error v ->
    Printf.eprintf "self-check failed: infeasible schedule: %s\n"
      (Format.asprintf "%a" Schedule.pp_violation v);
    exit self_check_failed);
  let cmax = Schedule.makespan inst sched in
  let lb = Resa_exact.Lower_bounds.best inst in
  Printf.printf "%s makespan: %d\n" name cmax;
  Printf.printf "lower bound: %d (ratio <= %.3f)\n" lb
    (if lb > 0 then float_of_int cmax /. float_of_int lb else Float.nan);
  Printf.printf "utilization: %.3f\n" (Schedule.utilization inst sched);
  if show_gantt then print_string (Gantt.render ~width inst sched)

let solve_cmd =
  let path = Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc:"Instance file ('-' for stdin).") in
  let algo =
    let algos =
      [ ("lsrc", `Lsrc); ("fcfs", `Fcfs); ("easy", `Easy); ("conservative", `Cons); ("cons", `Cons);
        ("shelf-nfdh", `Nfdh); ("shelf-ffdh", `Ffdh); ("bnb", `Bnb); ("opt", `Bnb); ("dp", `Dp);
        ("preemptive", `Preemptive) ]
    in
    Arg.(
      value
      & opt (named ~what:"algorithm" algos) `Lsrc
      & info [ "algo"; "a" ]
          ~doc:
            "lsrc, fcfs, easy, conservative, shelf-nfdh, shelf-ffdh, bnb, dp (exact, m=1), \
             or preemptive (exact, q=1 jobs).")
  in
  let priority =
    let priorities =
      Priority.
        [ ("fifo", Fifo); ("lpt", Lpt); ("spt", Spt); ("widest", Widest_first);
          ("narrowest", Narrowest_first); ("area", Largest_area_first) ]
    in
    let seeded = [ ("random", fun seed -> Priority.Random seed) ] in
    Arg.(
      value
      & opt (named ~what:"priority" ~seeded priorities) Priority.Fifo
      & info [ "priority"; "p" ] ~doc:"fifo, lpt, spt, widest, narrowest, area, random:SEED.")
  in
  let gantt = Arg.(value & flag & info [ "gantt"; "g" ] ~doc:"Render an ASCII Gantt chart.") in
  let width = Arg.(value & opt int 72 & info [ "width" ] ~doc:"Gantt chart width.") in
  Cmd.v
    (Cmd.info "solve" ~exits ~doc:"Schedule an instance file and report the makespan")
    Term.(const solve $ path $ algo $ priority $ gantt $ width)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate swf_path m n max_runtime mean_gap seed policies overestimate jobs trace_out
    chrome_out csv_out =
  Option.iter Resa_par.set_domains jobs;
  let arrivals =
    let module S = Resa_swf.Swf_stream in
    match swf_path with
    | Some path -> S.with_file ~m path S.to_list
    | None ->
      let rng = Prng.create ~seed in
      S.to_list (S.of_entries ~m (Resa_swf.Swf.generate ~overestimate rng ~m ~n ~max_runtime ~mean_gap))
  in
  let arrivals, job_numbers =
    List.split
      (List.map
         (fun (a : Resa_swf.Swf_stream.arrival) ->
           (Resa_sim.Simulator.{ job = a.job; submit = a.submit; estimate = a.estimate }, a.job_number))
         arrivals)
  in
  let job_numbers = Array.of_list job_numbers in
  let trace_out =
    match trace_out with Some _ as p -> p | None -> Sys.getenv_opt "RESA_TRACE"
  in
  let tracing = trace_out <> None || chrome_out <> None || csv_out <> None in
  print_endline Resa_sim.Metrics.header;
  (* One independent simulation per policy: fan out over the domain pool
     (row order, and hence output, is policy order regardless of pool
     size). Each run owns a private ring-buffer sink, so traced event
     streams are deterministic at any pool size; they are serialised below
     in policy order. *)
  let results =
    Resa_par.parallel_map_list
      (fun policy ->
        let obs = if tracing then Resa_obs.Trace.buffer () else Resa_obs.Trace.null in
        let trace = Resa_sim.Simulator.run ~obs ~policy ~m arrivals in
        let s = Resa_sim.Metrics.summarize trace in
        ( policy.Resa_sim.Policy.name,
          Resa_sim.Metrics.row ~name:policy.Resa_sim.Policy.name s,
          trace,
          obs ))
      policies
  in
  List.iter (fun (_, row, _, _) -> print_endline row) results;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun (name, _, _, obs) -> Resa_obs.Trace.flush_jsonl ~run:name oc obs) results))
    trace_out;
  Option.iter
    (fun path ->
      let slices =
        List.concat_map
          (fun (name, _, trace, _) -> Resa_sim.Sim_trace.chrome_slices ~process:name trace)
          results
        @ (if Resa_obs.Prof.enabled () then
             Resa_obs.Chrome.of_spans ~process:"executor" (Resa_obs.Prof.spans ())
           else [])
      in
      Out_channel.with_open_text path (fun oc -> Resa_obs.Chrome.write oc slices))
    chrome_out;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          List.iteri
            (fun i (name, _, trace, obs) ->
              let provs = Resa_obs.Trace.start_provenances (Resa_obs.Trace.contents obs) in
              let provenance id =
                match List.assoc_opt id provs with
                | Some p -> Resa_obs.Trace.provenance_to_string p
                | None -> ""
              in
              let csv =
                Resa_sim.Metrics.per_job_csv ~run:name
                  (Resa_sim.Metrics.per_job ~provenance ~job_numbers trace)
              in
              (* One header for the whole file. *)
              let csv =
                if i = 0 then csv
                else
                  match String.index_opt csv '\n' with
                  | Some k -> String.sub csv (k + 1) (String.length csv - k - 1)
                  | None -> csv
              in
              Out_channel.output_string oc csv)
            results))
    csv_out

let simulate_cmd =
  let swf =
    Arg.(
      value
      & opt (some string) None
      & info [ "swf" ] ~docv:"FILE" ~doc:("SWF trace file (otherwise synthetic). " ^ swf_rule_doc))
  in
  let m = Arg.(value & opt int 64 & info [ "m" ] ~doc:"Number of machines.") in
  let n = Arg.(value & opt int 200 & info [ "n" ] ~doc:"Synthetic trace length.") in
  let max_runtime = Arg.(value & opt int 200 & info [ "max-runtime" ] ~doc:"Synthetic max runtime.") in
  let mean_gap = Arg.(value & opt float 5.0 & info [ "mean-gap" ] ~doc:"Mean inter-arrival gap.") in
  let overestimate =
    Arg.(
      value & opt float 1.0
      & info [ "overestimate" ]
          ~doc:"Mean walltime overestimation factor for synthetic traces (>= 1).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the structured event stream (JSONL, one event per line, tagged with the \
             policy name) to $(docv). Defaults to $(b,RESA_TRACE) when set.")
  in
  let chrome_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON Gantt view (one process per policy, one track per \
             processor; open in Perfetto or chrome://tracing) to $(docv).")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:
            "Write per-job metrics (submit, start, wait, slowdown, provenance) as CSV to \
             $(docv).")
  in
  Cmd.v
    (Cmd.info "simulate" ~exits ~doc:"Online simulation of a (synthetic or SWF) trace")
    Term.(
      const simulate $ swf $ m $ n $ max_runtime $ mean_gap $ seed_arg $ policy_arg $ overestimate
      $ jobs_arg $ trace_out $ chrome_out $ csv_out)

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay swf_path m n max_runtime mean_gap seed policies overestimate heartbeat_out hb_every
    hb_dt prom_out metrics_on max_allocs =
  (* --prom needs the registry populated; --metrics asks for it explicitly
     (same switch as RESA_METRICS=1). *)
  if metrics_on || prom_out <> None then Resa_obs.Metrics.enable ();
  (* One pass per policy over a freshly opened stream (file re-read or
     synthetic re-seeded): nothing is shared across runs and nothing is
     retained within one, so the process high-water mark reflects a single
     replay's live set. Runs are sequential on purpose — overlapping them
     would sum their footprints into the RSS column. *)
  let with_stream k =
    match swf_path with
    | Some path -> Resa_swf.Swf_stream.with_file ~m path k
    | None ->
      let rng = Prng.create ~seed in
      k (Resa_swf.Swf_stream.synthetic ~overestimate rng ~m ~n ~max_runtime ~mean_gap)
  in
  (* Heartbeat sink: one JSONL file shared by all runs (run-tagged rows,
     like --trace); each line is flushed immediately so `resa top` can
     follow the stream through a pipe while the replay runs. *)
  let with_hb_channel k =
    match heartbeat_out with
    | None -> k None
    | Some "-" -> k (Some stdout)
    | Some path -> Out_channel.with_open_text path (fun oc -> k (Some oc))
  in
  (* Policies that blew the --max-allocs-per-event budget, reported (and
     failing the process) after the table so every row still prints. *)
  let over_budget = ref [] in
  with_hb_channel (fun hb_oc ->
      Printf.printf "%-8s %9s %10s %10s %9s %9s %7s %6s %8s %9s %8s %8s %9s\n" "policy" "jobs"
        "Cmax" "mean_wait" "p50_wait" "p95_wait" "slowdn" "util" "wall_s" "jobs/s" "max_live"
        "rss_MB" "allocs/ev";
      List.iter
        (fun policy ->
          let ms = Resa_sim.Metrics.Stream.create ~m ~reservations:[] () in
          let mw0 = Gc.minor_words () in
          let t0 = Resa_obs.Prof.now_ns () in
          let on_heartbeat =
            Option.map
              (fun oc hb ->
                let elapsed_s = float_of_int (Resa_obs.Prof.now_ns () - t0) /. 1e9 in
                let wall =
                  Resa_sim.Heartbeat.
                    {
                      elapsed_s;
                      jobs_per_s =
                        float_of_int hb.Resa_sim.Simulator.hb_completed
                        /. Float.max elapsed_s 1e-9;
                      rss_mb =
                        Option.map
                          (fun kb -> float_of_int kb /. 1024.)
                          (Resa_obs.Prof.peak_rss_kb ());
                      wall_metrics = [];
                    }
                in
                Resa_sim.Heartbeat.write oc
                  (Resa_sim.Heartbeat.make ~run:policy.Resa_sim.Policy.name ~stream:ms
                     ~registry:true ~wall hb);
                flush oc)
              hb_oc
          in
          let stats =
            with_stream (fun src ->
                Resa_sim.Simulator.run_stream ~heartbeat_every:hb_every ~heartbeat_dt:hb_dt
                  ?on_heartbeat
                  ~on_record:(Resa_sim.Metrics.Stream.observe ms)
                  ~policy ~m
                  (fun () ->
                    Option.map
                      (fun (a : Resa_swf.Swf_stream.arrival) ->
                        Resa_sim.Simulator.{ job = a.job; submit = a.submit; estimate = a.estimate })
                      (src ())))
          in
          let wall_s = float_of_int (Resa_obs.Prof.now_ns () - t0) /. 1e9 in
          (* Minor words per event (arrival or completion): the whole
             replay, iterator and incremental metrics included — the number
             the flat-core engine keeps O(1). *)
          let allocs_ev =
            (Gc.minor_words () -. mw0)
            /. float_of_int (max 1 (2 * stats.Resa_sim.Simulator.jobs))
          in
          if max_allocs > 0.0 && allocs_ev > max_allocs then
            over_budget := (policy.Resa_sim.Policy.name, allocs_ev) :: !over_budget;
          let s = Resa_sim.Metrics.Stream.summary ms in
          let rss_mb =
            match Resa_obs.Prof.peak_rss_kb () with
            | Some kb -> Printf.sprintf "%.1f" (float_of_int kb /. 1024.)
            | None -> "-"
          in
          Printf.printf
            "%-8s %9d %10d %10.1f %9.0f %9.0f %7.2f %6.3f %8.2f %9.0f %8d %8s %9.1f\n"
            policy.Resa_sim.Policy.name stats.Resa_sim.Simulator.jobs
            stats.Resa_sim.Simulator.makespan s.Resa_sim.Metrics.mean_wait
            (Resa_sim.Metrics.Stream.wait_p50 ms)
            (Resa_sim.Metrics.Stream.wait_p95 ms)
            s.Resa_sim.Metrics.mean_slowdown s.Resa_sim.Metrics.utilization wall_s
            (float_of_int stats.Resa_sim.Simulator.jobs /. Float.max wall_s 1e-9)
            stats.Resa_sim.Simulator.max_live rss_mb allocs_ev)
        policies);
  (* The registry is process-global and cumulative across the sequential
     runs, like Prof counters: the exposition describes the whole replay. *)
  Option.iter
    (fun path ->
      if path = "-" then print_string (Resa_obs.Metrics.expose ())
      else Out_channel.with_open_text path (fun oc -> output_string oc (Resa_obs.Metrics.expose ())))
    prom_out;
  if !over_budget <> [] then begin
    List.iter
      (fun (name, allocs_ev) ->
        Printf.eprintf "gate failed: %s allocated %.1f minor words/event (budget %.1f)\n" name
          allocs_ev max_allocs)
      (List.rev !over_budget);
    exit gate_failed
  end

let replay_cmd =
  let swf =
    Arg.(
      value
      & opt (some string) None
      & info [ "swf" ] ~docv:"FILE"
          ~doc:("SWF trace file, streamed line by line (otherwise synthetic). " ^ swf_rule_doc))
  in
  let m = Arg.(value & opt int 128 & info [ "m" ] ~doc:"Number of machines.") in
  let n = Arg.(value & opt int 200_000 & info [ "n" ] ~doc:"Synthetic trace length.") in
  let max_runtime =
    Arg.(value & opt int 2000 & info [ "max-runtime" ] ~doc:"Synthetic max runtime.")
  in
  let mean_gap =
    (* 150 keeps the synthetic system stable (bounded queue) even under
       FCFS, so the replay's memory footprint is flat by default. *)
    Arg.(value & opt float 150.0 & info [ "mean-gap" ] ~doc:"Mean inter-arrival gap.")
  in
  let overestimate =
    Arg.(
      value & opt float 2.0
      & info [ "overestimate" ]
          ~doc:"Mean walltime overestimation factor for synthetic traces (>= 1).")
  in
  let heartbeat_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "heartbeat" ] ~docv:"FILE"
          ~doc:
            "Write periodic telemetry snapshots (JSONL, one run-tagged row per interval: jobs, \
             queue depth, live jobs, P² wait quantiles, timeline nodes, wall-clock rate and \
             RSS) to $(docv) ('-' for stdout). Each line is flushed immediately, so \
             $(b,resa top) can follow the file or a pipe live.")
  in
  let hb_every =
    Arg.(
      value & opt int 0
      & info [ "heartbeat-every" ] ~docv:"K"
          ~doc:
            "Snapshot every $(docv) events (arrivals + completions). Default with --heartbeat \
             and no cadence: 65536.")
  in
  let hb_dt =
    Arg.(
      value & opt int 0
      & info [ "heartbeat-dt" ] ~docv:"T"
          ~doc:"Snapshot every $(docv) simulation time units (0 disables the time cadence).")
  in
  let prom_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "After the replay, write the metrics registry as a Prometheus text exposition to \
             $(docv) ('-' for stdout). Implies --metrics.")
  in
  let metrics_on =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Enable the typed metrics registry for this run (same switch as \
             $(b,RESA_METRICS=1)); heartbeat rows then carry the registry section.")
  in
  let max_allocs =
    Arg.(
      value & opt float 0.0
      & info [ "max-allocs-per-event" ] ~docv:"W"
          ~doc:
            "Fail (exit 1) if any policy's replay allocates more than $(docv) minor words per \
             event (arrival or completion), whole run including the stream iterator and \
             incremental metrics; 0 disables. The CI allocation-budget gate for the \
             allocation-free decide loop.")
  in
  Cmd.v
    (Cmd.info "replay" ~exits
       ~doc:
         "Constant-memory streaming replay of a (synthetic or SWF) trace: incremental metrics, \
          no materialised job list, timeline history GC")
    Term.(
      const replay $ swf $ m $ n $ max_runtime $ mean_gap $ seed_arg $ policy_arg $ overestimate
      $ heartbeat_out $ hb_every $ hb_dt $ prom_out $ metrics_on $ max_allocs)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain path =
  let lines =
    if path = "-" then In_channel.input_lines stdin
    else In_channel.with_open_text path In_channel.input_lines
  in
  let events =
    List.concat
      (List.mapi
         (fun lineno line ->
           if String.trim line = "" then []
           else
             match Resa_obs.Trace.parse_line line with
             | Ok ev -> [ ev ]
             | Error msg -> raise (Rejected (Printf.sprintf "%s:%d: %s" path (lineno + 1) msg)))
         lines)
  in
  print_string (Resa_obs.Explain.render events)

let explain_cmd =
  let path =
    Arg.(
      value
      & pos 0 string "-"
      & info [] ~docv:"FILE" ~doc:"JSONL event trace from simulate --trace ('-' for stdin).")
  in
  Cmd.v
    (Cmd.info "explain" ~exits
       ~doc:"Replay a JSONL event trace and print, per job, why it started when it did")
    Term.(const explain $ path)

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

(* Live terminal view of a heartbeat stream. Reads rows as they arrive
   (a pipe from `resa replay --heartbeat -`, or a file being appended
   to), keeps the latest row plus short rate/occupancy histories per run,
   and redraws on every row when stdout is a terminal. On a non-terminal
   stdout it stays quiet and prints one final dashboard at end of
   stream, so `resa top < hb.jsonl` doubles as a summariser. *)

let top path =
  let ic = if path = "-" then stdin else open_in path in
  let module H = Resa_sim.Heartbeat in
  let hist_cap = 48 in
  let runs : (string, H.row * float list * float list) Hashtbl.t = Hashtbl.create 4 in
  let order = ref [] in
  let malformed = ref 0 in
  let observe (r : H.row) =
    let name = Option.value r.H.run ~default:"run" in
    let _, rates, lives =
      match Hashtbl.find_opt runs name with
      | Some s -> s
      | None ->
        order := name :: !order;
        (r, [], [])
    in
    let push v l = if List.length l >= hist_cap then v :: List.filteri (fun i _ -> i < hist_cap - 1) l else v :: l in
    let rate = match r.H.wall with Some w -> w.H.jobs_per_s | None -> Float.nan in
    Hashtbl.replace runs name
      (r, push rate rates, push (float_of_int r.H.hb.Resa_sim.Simulator.hb_live) lives)
  in
  let render () =
    let b = Buffer.create 1024 in
    List.iter
      (fun name ->
        let r, rates, lives = Hashtbl.find runs name in
        let hb = r.H.hb in
        let open Resa_sim.Simulator in
        Buffer.add_string b
          (Printf.sprintf "== %s ==  snapshot %d  t=%d  events=%d\n" name hb.hb_seq hb.hb_time
             hb.hb_events);
        Buffer.add_string b
          (Printf.sprintf "  jobs: %d admitted, %d completed, %d queued, %d live\n" hb.hb_admitted
             hb.hb_completed hb.hb_queued hb.hb_live);
        Buffer.add_string b
          (Printf.sprintf "  timeline: %d nodes, makespan %d\n" hb.hb_nodes hb.hb_makespan);
        let f v = if Float.is_finite v then Printf.sprintf "%.1f" v else "-" in
        Buffer.add_string b
          (Printf.sprintf "  wait: p50 %s  p95 %s  util %s\n" (f r.H.wait_p50) (f r.H.wait_p95)
             (f r.H.utilization));
        (match r.H.wall with
        | Some w ->
          Buffer.add_string b
            (Printf.sprintf "  wall: %.1fs  %.0f jobs/s  rss %s MB\n" w.H.elapsed_s w.H.jobs_per_s
               (match w.H.rss_mb with Some v -> Printf.sprintf "%.1f" v | None -> "-"))
        | None -> ());
        let spark label xs =
          if List.exists Float.is_finite xs then
            Buffer.add_string b
              (Printf.sprintf "  %-7s %s\n" label
                 (Resa_stats.Stats.sparkline ~width:hist_cap (List.rev xs)))
        in
        spark "live" lives;
        spark "jobs/s" rates)
      (List.rev !order);
    if !malformed > 0 then
      Buffer.add_string b (Printf.sprintf "(%d malformed line%s skipped)\n" !malformed
        (if !malformed = 1 then "" else "s"));
    Buffer.contents b
  in
  let tty = Unix.isatty Unix.stdout in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         (match H.parse_line line with
         | Ok row -> observe row
         | Error _ -> incr malformed);
         if tty then begin
           (* Home + clear-to-end: flicker-free redraw. *)
           print_string "\027[H\027[J";
           print_string (render ());
           flush stdout
         end
       end
     done
   with End_of_file -> ());
  if path <> "-" then close_in ic;
  if not tty then print_string (render ())

let top_cmd =
  let path =
    Arg.(
      value
      & pos 0 string "-"
      & info [] ~docv:"FILE"
          ~doc:"Heartbeat JSONL stream from replay --heartbeat ('-' for stdin).")
  in
  Cmd.v
    (Cmd.info "top" ~exits
       ~doc:
         "Live terminal view of a heartbeat stream: per-run job counts, queue depth, wait \
          quantiles, timeline health and rate/occupancy sparklines")
    Term.(const top $ path)

(* ------------------------------------------------------------------ *)
(* benchdiff                                                           *)
(* ------------------------------------------------------------------ *)

let benchdiff old_path new_path threshold min_wall warn_only =
  let read path =
    let contents =
      if path = "-" then In_channel.input_all stdin
      else In_channel.with_open_text path In_channel.input_all
    in
    match Resa_obs.Benchdiff.rows_of_string contents with
    | Ok rows -> rows
    | Error msg -> raise (Rejected (Printf.sprintf "%s: %s" path msg))
  in
  let old_rows = read old_path in
  let new_rows = read new_path in
  let report = Resa_obs.Benchdiff.compare_rows ~threshold ~min_wall ~old_rows ~new_rows () in
  print_string (Resa_obs.Benchdiff.render report);
  if report.Resa_obs.Benchdiff.regressions > 0 then
    if warn_only then print_endline "benchdiff: regressions found (warn-only, not failing)"
    else exit gate_failed

let benchdiff_cmd =
  let old_path = Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD" ~doc:"Baseline BENCH_*.json trajectory.") in
  let new_path = Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW" ~doc:"Candidate BENCH_*.json trajectory.") in
  let threshold =
    Arg.(
      value & opt float 1.10
      & info [ "threshold" ] ~docv:"R"
          ~doc:"Flag pairs whose new/old wall ratio exceeds $(docv) (must be > 1).")
  in
  let min_wall =
    Arg.(
      value & opt float 0.05
      & info [ "min-wall" ] ~docv:"S"
          ~doc:"Timer noise floor: pairs under $(docv) seconds in both files never gate.")
  in
  let warn_only =
    Arg.(
      value & flag
      & info [ "warn-only" ]
          ~doc:"Report regressions but exit 0 — for advisory CI gates on noisy runners.")
  in
  Cmd.v
    (Cmd.info "benchdiff" ~exits
       ~doc:
         "Compare two bench trajectory JSON files row-by-row and exit non-zero on relative \
          slowdowns past the threshold")
    Term.(const benchdiff $ old_path $ new_path $ threshold $ min_wall $ warn_only)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace m n max_runtime mean_gap overestimate seed =
  let rng = Prng.create ~seed in
  let entries = Resa_swf.Swf.generate ~overestimate rng ~m ~n ~max_runtime ~mean_gap in
  print_string
    (Resa_swf.Swf.to_string
       ~comments:
         [
           "synthetic SWF trace generated by resa";
           Printf.sprintf "MaxProcs: %d" m;
           Printf.sprintf "seed: %d, overestimate: %.2f" seed overestimate;
         ]
       entries)

let trace_cmd =
  let m = Arg.(value & opt int 64 & info [ "m" ] ~doc:"Number of machines.") in
  let n = Arg.(value & opt int 200 & info [ "n" ] ~doc:"Trace length.") in
  let max_runtime = Arg.(value & opt int 200 & info [ "max-runtime" ] ~doc:"Max runtime.") in
  let mean_gap = Arg.(value & opt float 5.0 & info [ "mean-gap" ] ~doc:"Mean inter-arrival gap.") in
  let overestimate =
    Arg.(value & opt float 1.0 & info [ "overestimate" ] ~doc:"Mean walltime overestimation (>= 1).")
  in
  Cmd.v
    (Cmd.info "trace" ~exits ~doc:"Emit a synthetic Standard Workload Format trace")
    Term.(const trace $ m $ n $ max_runtime $ mean_gap $ overestimate $ seed_arg)

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let info_main path =
  let inst = read_instance path in
  Format.printf "%a@." Instance.pp inst;
  Printf.printf "total work:        %d processor-units\n" (Instance.total_work inst);
  Printf.printf "pmax / qmax:       %d / %d\n" (Instance.pmax inst) (Instance.qmax inst);
  Printf.printf "peak blocked:      %d of %d processors\n" (Instance.umax inst) (Instance.m inst);
  Printf.printf "reservation horizon: %d\n" (Instance.horizon inst);
  (match Instance.alpha_interval inst with
  | Some (lo, hi) -> Printf.printf "alpha-restricted for alpha in [%.3f, %.3f]\n" lo hi
  | None -> print_endline "not alpha-restricted for any alpha");
  Printf.printf "lower bounds:      work=%d fit=%d serial=%d -> best=%d\n"
    (Resa_exact.Lower_bounds.work_bound inst)
    (Resa_exact.Lower_bounds.fit_bound inst)
    (Resa_exact.Lower_bounds.serial_bound inst)
    (Resa_exact.Lower_bounds.best inst);
  let horizon = max 1 (max (Instance.horizon inst) (Resa_exact.Lower_bounds.best inst)) in
  print_endline "availability profile:";
  print_string (Gantt.render_profile ~width:70 ~height:8 (Instance.availability inst) ~hi:horizon)

let info_cmd =
  let path = Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc:"Instance file ('-' for stdin).") in
  Cmd.v (Cmd.info "info" ~exits ~doc:"Summarise an instance file") Term.(const info_main $ path)

(* ------------------------------------------------------------------ *)
(* bounds                                                              *)
(* ------------------------------------------------------------------ *)

let bounds alphas =
  Printf.printf "%8s %12s %8s %8s\n" "alpha" "2/a(upper)" "B1" "B2";
  List.iter
    (fun (a, ub, b1, b2) -> Printf.printf "%8.3f %12.3f %8.3f %8.3f\n" a ub b1 b2)
    (Resa_analysis.Ratio_bounds.figure4_rows ~alphas)

let bounds_cmd =
  let alphas =
    Arg.(
      value
      & opt (list float) [ 0.25; 0.33; 0.5; 0.66; 0.75; 1.0 ]
      & info [ "alphas" ] ~doc:"Comma-separated alpha values.")
  in
  Cmd.v
    (Cmd.info "bounds" ~exits ~doc:"Print the Figure 4 bound curves")
    Term.(const bounds $ alphas)

(* The one exception-to-exit-code site. The library checks every
   parameter and input it is given and raises [Invalid_argument] or a
   parse error naming the cause; those, unreadable files and [Rejected]
   are rejected inputs (exit 2). Anything else, the runtime's own
   out-of-bounds access included, is a bug (exit 125). *)
let () =
  let doc = "scheduling with reservations: algorithms, bounds and simulator" in
  let cmd =
    Cmd.group (Cmd.info "resa" ~exits ~version:"1.0.0" ~doc)
      [ generate_cmd; solve_cmd; simulate_cmd; replay_cmd; explain_cmd; top_cmd; benchdiff_cmd;
        trace_cmd; bounds_cmd; info_cmd ]
  in
  let reject msg =
    Printf.eprintf "error: %s\n" msg;
    input_rejected
  in
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception Resa_swf.Swf_stream.Parse_error { line; msg } ->
      reject (Printf.sprintf "line %d: %s" line msg)
    | exception (Sys_error msg | Rejected msg) -> reject msg
    | exception Invalid_argument msg when msg <> "index out of bounds" -> reject msg
    | exception e ->
      Printf.eprintf "resa: internal error, uncaught exception:\n       %s\n%s"
        (Printexc.to_string e) (Printexc.get_backtrace ());
      Cmd.Exit.internal_error)
