(* The three online replay workloads: a generated SWF trace per stream,
   streamed through [Swf_stream.with_file] into [Simulator.run_stream] with
   incremental metrics and a heartbeat sampler — the path [resa replay
   --heartbeat] runs — once per policy. *)

open Resa_core
module Sim = Resa_sim.Simulator
module Policy = Resa_sim.Policy
module Swf_stream = Resa_swf.Swf_stream
module Prof = Resa_obs.Prof
module Reg = Resa_obs.Metrics

type spec = {
  name : string;
  default_seed : int;
  streams : int;  (** Independent traces per run; each policy replays all. *)
  n : int;  (** Jobs per trace. *)
  mean_gap : float;
  load : float option;
      (** Offered load the arrival times are rescaled to, removing the
          run-to-run spread of the drawn total work. *)
  qmax : int;  (** Job widths are capped here. *)
  calendar : bool;  (** Replay against the fixed reservation calendar. *)
  pass_s : float;  (** Seconds of one measured pass, for [Common.passes]. *)
  reps : (string * int) list;
      (** Times a measured pass replays every stream, by policy key (1 when
          absent), so that the cheap policies are timed over as much work
          as the dear ones. *)
}

let m = 128
let max_runtime = 2000
let overestimate = 2.0
let gc_every = 1000

(* The reservation calendar: one 1000-unit reservation of 32 of the 128
   processors per 1700-unit slot, placed inside its slot by a fixed seed,
   so reservations never overlap and U(t) ≤ 32 = (1−α)m for α = 0.75.
   Its 436 reservations span the ~740k units of a 5000-job trace at mean
   gap 150. The calendar does not move with --seed: the engine's gc regime
   hangs on the node count of the calendar's timeline, which sits just over
   the 16384-node gc trigger, and a calendar drawn per seed moves the
   number of gc runs by up to 60%. With this one, job streams of six seeds
   gave 263–307 gc runs per FCFS replay. 433 reservations cost a third
   less but spread more (seeds 1–6 gave 177–204 gc runs, 150-job traces);
   440 gave 327–374 at 1.4× the cost of 436. *)
let calendar_slots = 436
let calendar_slot = 1700
let calendar_len = 1000
let calendar_q = 32
let calendar_seed = 2007
let alpha = 0.75

let calendar () =
  let rng = Prng.create ~seed:calendar_seed in
  List.init calendar_slots (fun i ->
      Reservation.make ~id:i
        ~start:((calendar_slot * i) + Prng.int rng ~bound:(calendar_slot - calendar_len))
        ~p:calendar_len ~q:calendar_q)

let stream_path spec i = Printf.sprintf "%s/%s/stream-%d.swf" Common.work_dir spec.name i

(* --- Set-up: generate, calibrate and write the traces ------------------- *)

(* Stream [i] of a run: drawn from its own copy of the generator so the
   calibration pass and the writing pass see the same jobs, one at a time. *)
let source spec rng =
  let src = Swf_stream.synthetic ~overestimate rng ~m ~n:spec.n ~max_runtime ~mean_gap:spec.mean_gap in
  fun () ->
    Option.map
      (fun (a : Swf_stream.arrival) ->
        { a with job = Job.make ~id:(Job.id a.job) ~p:(Job.p a.job) ~q:(min spec.qmax (Job.q a.job)) })
      (src ())

let generate spec ~seed =
  let rng = Prng.create ~seed in
  Common.mkdir_p (Filename.dirname (stream_path spec 0));
  for i = 0 to spec.streams - 1 do
    let scale =
      match spec.load with
      | None -> 1.
      | Some target ->
        let work = ref 0 and last = ref 0 in
        Swf_stream.iter (source spec (Prng.copy rng)) (fun a ->
            work := !work + Job.area a.job;
            last := a.submit);
        float_of_int !work /. float_of_int (m * max 1 !last) /. target
    in
    Out_channel.with_open_text (stream_path spec i) (fun oc ->
        Swf_stream.iter (source spec rng) (fun a ->
            let q = Job.q a.job in
            output_string oc
              (Resa_swf.Swf.to_line
                 {
                   Resa_swf.Swf.default with
                   job_number = a.job_number;
                   submit = int_of_float (float_of_int a.submit *. scale);
                   wait = 0;
                   run = Job.p a.job;
                   alloc_procs = q;
                   req_procs = q;
                   req_time = a.estimate;
                   status = 1;
                 });
            output_char oc '\n'))
  done

(* A written trace read back whole, for the checks that need every job. *)
let read_back spec i = Swf_stream.with_file ~m (stream_path spec i) Swf_stream.to_list

(* --- One replay ------------------------------------------------------------ *)

(* Per-policy accumulators of the traced run. *)
type acc = {
  mutable qlen : int;  (** Sum of queue lengths seen by decide. *)
  mutable starts : int;
  mutable reclaimed : int;
  mutable gc_before : int;  (** Node count before each engine gc, summed. *)
  mutable gcs_seen : int;
}

let new_acc () = { qlen = 0; starts = 0; reclaimed = 0; gc_before = 0; gcs_seen = 0 }

let sp_swf = Spans.name "swf_stream"
let sp_metrics = Spans.name "metrics_stream"
let sp_heartbeat = Spans.name "heartbeat"
let sp_sim p = Spans.name ("simulator." ^ Common.policy_key p)
let sp_decide p = Spans.name ("decide." ^ Common.policy_key p)
let reg_gc_runs = Reg.counter "sim.gc_runs"

(* [create] wrapped so that every decide call is a span, with the queue
   length it saw and the starts it returned. *)
let traced_policy (p : Policy.t) acc =
  let id = sp_decide p in
  {
    p with
    Policy.create =
      (fun ~obs ->
        let decide = p.Policy.create ~obs in
        fun ~time ~queue ~free ->
          acc.qlen <- acc.qlen + Resa_sim.Jobq.length queue;
          let s = Spans.enter id in
          match decide ~time ~queue ~free with
          | a ->
            Spans.leave s;
            acc.starts <- acc.starts + List.length a.Policy.start_now;
            a
          | exception e ->
            Spans.leave s;
            raise e);
  }

(* The default heartbeat cadence of [run_stream]. *)
let hb_cadence = 65536

type outcome = { stats : Sim.stream_stats; records : int; digest : int; starts : int array option }

(* Replay trace [path] under [policy]. [hb_oc] receives heartbeat rows as
   [resa replay --heartbeat] writes them. With [acc] the run is traced:
   spans around each layer call, and a heartbeat sampler at every decision
   instant whose snapshots bracket each engine gc run (node count before and
   after), while heartbeat rows are still written only at the default
   cadence. With [~keep_starts] the start of every job is returned too. *)
let replay ?acc ?(keep_starts = false) ~hb_oc ~reservations ~n policy path =
  let ms = Resa_sim.Metrics.Stream.create ~m ~reservations () in
  let digest = ref Common.digest_init and records = ref 0 in
  let starts = if keep_starts then Some (Array.make n (-1)) else None in
  let on_record (r : Sim.record) =
    let id = Job.id r.job in
    digest := Common.mix (Common.mix !digest id) r.start;
    incr records;
    (match starts with Some a when id < n -> a.(id) <- r.start | _ -> ());
    let s = Spans.enter sp_metrics in
    Resa_sim.Metrics.Stream.observe ms r;
    Spans.leave s
  in
  let t0 = Spans.now_ns () in
  let write_hb hb =
    let elapsed_s = float_of_int (Spans.now_ns () - t0) /. 1e9 in
    let wall =
      Resa_sim.Heartbeat.
        {
          elapsed_s;
          jobs_per_s = float_of_int hb.Sim.hb_completed /. Float.max elapsed_s 1e-9;
          rss_mb = Option.map (fun kb -> float_of_int kb /. 1024.) (Prof.peak_rss_kb ());
          wall_metrics = [];
        }
    in
    let s = Spans.enter sp_heartbeat in
    Resa_sim.Heartbeat.write hb_oc
      (Resa_sim.Heartbeat.make ~run:policy.Policy.name ~stream:ms ~registry:true ~wall hb);
    Spans.leave s
  in
  let heartbeat_every, on_heartbeat, policy =
    match acc with
    | None -> (0, write_hb, policy)
    | Some acc ->
      let last_nodes = ref 0 and last_written = ref 0 and closed = ref false in
      let on_hb hb =
        let gcs = Reg.value reg_gc_runs in
        if gcs > acc.gcs_seen then begin
          acc.reclaimed <- acc.reclaimed + max 0 (!last_nodes - hb.Sim.hb_nodes);
          acc.gc_before <- acc.gc_before + !last_nodes
        end;
        acc.gcs_seen <- gcs;
        last_nodes := hb.Sim.hb_nodes;
        let final = hb.Sim.hb_events = 2 * n in
        if hb.Sim.hb_events - !last_written >= hb_cadence || (final && not !closed) then begin
          last_written := hb.Sim.hb_events;
          closed := final;
          write_hb hb
        end
      in
      (1, on_hb, traced_policy policy acc)
  in
  let stats =
    Swf_stream.with_file ~m path (fun src ->
        let next () =
          let s = Spans.enter sp_swf in
          let a = src () in
          Spans.leave s;
          match a with
          | None -> None
          | Some (a : Swf_stream.arrival) -> Some Sim.{ job = a.job; submit = a.submit; estimate = a.estimate }
        in
        Spans.wrap (sp_sim policy) (fun () ->
            Sim.run_stream ~gc_every ~heartbeat_every ~on_heartbeat ~on_record ~policy ~m ~reservations
              next))
  in
  { stats; records = !records; digest = !digest; starts }

(* Feasibility of a replayed schedule: every job starts at or after its
   submission, and the offline instance (same jobs and reservations)
   accepts the starts. *)
let validate ~reservations (arrivals : Swf_stream.arrival list) starts =
  let inst =
    Instance.create_exn ~m ~jobs:(List.map (fun (a : Swf_stream.arrival) -> a.job) arrivals) ~reservations
  in
  let sched = Schedule.make starts in
  [
    ("start >= submit", List.for_all (fun (a : Swf_stream.arrival) -> starts.(Job.id a.job) >= a.submit) arrivals);
    ("Schedule.validate", Schedule.validate inst sched = Ok ());
  ]

(* --- Runs ------------------------------------------------------------------ *)

(* The exact solver is timed on every workload: here on the first 15
   instances of the fixed exact-solve set (the 19th alone takes ~0.85 s),
   in six rounds spread over the passes. *)
let exact_subset = 15
let exact_rounds = 6

type inputs = { reservations : Reservation.t list; exact : Instance.t list }

(* One set-up: the calendar, the traces written to disk, the exact-solve
   instances. Regenerating them writes identical files. *)
let setup_once spec ~seed =
  let reservations = if spec.calendar then calendar () else [] in
  generate spec ~seed;
  { reservations; exact = List.init exact_subset (fun i -> Offline.exact_instance (i + 1)) }

(* The timed set-ups; inputs that left their regime stop the run here. *)
let setup spec ~seed =
  let inputs = Common.time_setup (fun () -> setup_once spec ~seed) in
  if spec.calendar then
    for i = 0 to spec.streams - 1 do
      let arrivals = read_back spec i in
      let inst =
        Instance.create_exn ~m ~jobs:(List.map (fun (a : Swf_stream.arrival) -> a.job) arrivals)
          ~reservations:inputs.reservations
      in
      Common.guard
        (Printf.sprintf "%s: α-restricted (α = %.2f) with hundreds of reservations" spec.name alpha)
        (Instance.is_alpha_restricted inst ~alpha && Instance.n_reservations inst >= 200)
    done;
  inputs

let with_hb spec f =
  Out_channel.with_open_text (Printf.sprintf "%s/%s/heartbeat.jsonl" Common.work_dir spec.name) f

let what spec p i = Printf.sprintf "%s %s stream %d" spec.name p.Policy.name i

(* Output-side regime guards, on the worst stream of each policy. They
   judge the reference pass only when every replay of it returned: a
   replay that raised is a failed operation, reported through [failed],
   not a drift of the inputs. *)
let regime_guards spec stats =
  let worst f (p : Policy.t) =
    Hashtbl.fold (fun (q, _) s acc -> if q = p.Policy.name then max acc (f s) else acc) stats 0
  in
  let check what ok = Common.guard (Printf.sprintf "%s: %s" spec.name what) ok in
  if Hashtbl.length stats < spec.streams * List.length Policy.all then
    prerr_endline ("perfbench: " ^ spec.name ^ ": a reference replay failed; regime guards skipped")
  else
    match spec.name with
    | "stable" ->
      List.iter
        (fun p -> check (p.Policy.name ^ " max_live <= 1000") (worst (fun s -> s.Sim.max_live) p <= 1000))
        Policy.all
    | "overload" ->
      (* Seeds 1–8 gave worst-stream peaks of 1413–1524 (FCFS) and
         977–1030 (CONS); the floors sit well below, so only a drift out
         of the deep-queue regime trips them. *)
      List.iter
        (fun (p, floor) ->
          check
            (Printf.sprintf "%s max_queued >= %d" p.Policy.name floor)
            (worst (fun s -> s.Sim.max_queued) p >= floor))
        [ (Policy.fcfs, 1000); (Policy.conservative, 500) ]
    | _ -> ()

type pass_result = {
  times : (Policy.t * float) list;  (** Seconds of each policy's replays of every stream, back to back. *)
  words : (Policy.t * float) list;  (** Minor words allocated by each policy's replays. *)
}

(* What the reference pass produced for one (policy, stream): later replays
   must reproduce the digest, and the validation checks the starts. *)
type reference = { digest : int; starts : int array }

let reps spec p = Option.value (List.assoc_opt (Common.policy_key p) spec.reps) ~default:1

(* One pass: every policy over every stream, [reps spec p] times over for
   policy [p] with [~repeat]; a policy's time and words are per replay of
   every stream.
   With [~scale] the times are at the reference speed (Common.timed_items).
   The first pass is the reference: its first replay of each stream records
   the digests and starts, and the regime guards judge it. *)
let pass spec ~scale ~repeat ~hb_oc ~refs inputs =
  let first = Hashtbl.length refs = 0 in
  let stats = Hashtbl.create 16 in
  let per_policy =
    List.map
      (fun p ->
        let r = if repeat then reps spec p else 1 in
        let w0 = Gc.minor_words () in
        let t =
          Common.timed_total ~scale (r * spec.streams) (fun j ->
              let i = j mod spec.streams and record = first && j < spec.streams in
              let key = (p.Policy.name, i) in
              Common.op (what spec p i) (fun () ->
                  let o =
                    replay ~keep_starts:record ~hb_oc ~reservations:inputs.reservations ~n:spec.n p
                      (stream_path spec i)
                  in
                  Hashtbl.replace stats key o.stats;
                  if record then Hashtbl.replace refs key { digest = o.digest; starts = Option.get o.starts };
                  Common.checks
                    [
                      ("record count", o.records = spec.n);
                      ("digest equals the reference pass", o.digest = (Hashtbl.find refs key).digest);
                    ]))
        in
        let r = float_of_int r in
        ((p, t /. r), (p, (Gc.minor_words () -. w0) /. r)))
      Policy.all
  in
  if first then regime_guards spec stats;
  { times = List.map fst per_policy; words = List.map snd per_policy }

let solve_all ~scale ~what inputs = Offline.solve_round ~scale ~what inputs.exact

(* After the measured passes: check each whole schedule of the reference
   pass — every job started, no job before its submission, feasibility
   against the offline instance (same jobs and reservations), and the
   golden digest of the default seed. *)
let validation spec ~seed ~refs inputs =
  for i = 0 to spec.streams - 1 do
    let arrivals = read_back spec i in
    List.iter
      (fun p ->
        Common.op (what spec p i ^ " (validation)") (fun () ->
            let r = Hashtbl.find refs (p.Policy.name, i) in
            Common.checks
              ([
                 ("every job started", Array.for_all (fun s -> s >= 0) r.starts);
                 ( "golden digest",
                   Common.golden_ok ~workload:spec.name ~default_seed:spec.default_seed ~seed
                     (Printf.sprintf "%s.%d" (Common.policy_key p) i)
                     (Printf.sprintf "%016x" r.digest) );
               ]
              @ validate ~reservations:inputs.reservations arrivals r.starts)))
      Policy.all
  done

(* A fixed number of measured passes, the first of them the reference, with
   the exact rounds spread among them. A policy's replay time is its median
   over the passes of the time its replays of every stream took back to
   back, at the reference speed (Common.timed_items). Each instance's solve
   time is likewise its median over the rounds. *)
let run spec ~seed ~seconds =
  let inputs = setup spec ~seed in
  with_hb spec (fun hb_oc ->
      let refs = Hashtbl.create 16 in
      let passes = Common.passes ~pass_s:spec.pass_s ~seconds in
      let start = Common.now_s () in
      let results, rounds, exact_s =
        Common.measure ~passes ~rounds:exact_rounds
          ~pass:(fun () -> pass spec ~scale:true ~repeat:true ~hb_oc ~refs inputs)
          ~round:(fun () -> solve_all ~scale:true ~what:(spec.name ^ " exact solve") inputs)
      in
      let peak_rss_mb = Common.peak_rss_mb () in
      Printf.eprintf "perfbench: %s seed %d: %d passes and %d exact rounds (%.1f s) in %.1f s%s\n%!"
        spec.name seed passes exact_rounds exact_s (Common.now_s () -. start) (Common.speed_note ());
      validation spec ~seed ~refs inputs;
      Common.metric "setup_s" "s" (Common.setup_s ());
      Common.metric "peak_rss_mb" "MB" peak_rss_mb;
      List.iter
        (fun p ->
          let t = Common.median_of (List.map (fun r -> List.assq p r.times) results) in
          Common.metric ("jobs_per_s." ^ Common.policy_key p) "1/s" (float_of_int (spec.streams * spec.n) /. t);
          Common.metric ("schedules_per_s." ^ Common.policy_key p) "1/s" (float_of_int spec.streams /. t))
        Policy.all;
      Offline.bnb_metrics rounds)

(* --- Traced run ------------------------------------------------------------- *)

let c_fit = Prof.counter "timeline.fit_attempts"
let c_min_on = Prof.counter "timeline.min_on"
let c_earliest = Prof.counter "timeline.earliest_fit"
let c_undone = Prof.counter "timeline.changes_undone"
let c_tl_gc = Prof.counter "timeline.gc"
let reg_rollbacks = Reg.counter "sim.rollbacks"
let reg_decisions = Reg.counter "sim.decisions"

(* Per-policy counter readings around one policy's replays. *)
let counters () =
  [|
    Prof.value c_fit;
    Prof.value c_min_on;
    Prof.value c_earliest;
    Prof.value c_undone;
    Prof.value c_tl_gc;
    Reg.value reg_gc_runs;
    Reg.value reg_rollbacks;
    Reg.value reg_decisions;
  |]

(* One traced pass: every replay and solve of a measured pass, with spans
   and the program's counter registries on; the replays must reproduce the
   untraced digests. Returns the function that reports the pass's
   per-layer metrics, to be called outside the timed region. *)
let traced_pass spec ~hb_oc ~refs ~(untraced : pass_result) inputs =
  Spans.reset ();
  Offline.reset_accs ();
  let mark = Offline.bnb_mark () in
  let per_policy =
    List.map
      (fun p ->
        let acc = new_acc () in
        acc.gcs_seen <- Reg.value reg_gc_runs;
        let c0 = counters () in
        let stats =
          List.init spec.streams (fun i ->
              let out = ref None in
              Common.op (what spec p i ^ " (traced)") (fun () ->
                  let o = replay ~acc ~hb_oc ~reservations:inputs.reservations ~n:spec.n p (stream_path spec i) in
                  out := Some o.stats;
                  Common.checks
                    [ ("digest equals the untraced pass", o.digest = (Hashtbl.find refs (p.Policy.name, i)).digest) ]);
              !out)
          |> List.filter_map Fun.id
        in
        let c1 = counters () in
        (p, acc, Array.mapi (fun k v -> v - c0.(k)) c1, stats))
      Policy.all
  in
  let solves = List.filter_map Fun.id (solve_all ~scale:false ~what:"traced exact solve" inputs) in
  fun () ->
    let tbl, broken = Spans.aggregate () in
    Common.op "trace: child spans within their parents" (fun () ->
        List.map (fun nm -> "children of " ^ nm ^ " exceed it") broken);
    let tot nm = Option.value (Hashtbl.find_opt tbl nm) ~default:{ Spans.calls = 0; total_ns = 0; self_ns = 0 } in
    let secs ns = float_of_int ns /. 1e9 in
    let jobs = float_of_int (spec.streams * spec.n) in
    let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
    let swf = tot "swf_stream" in
    Common.metric "swf_stream.self_s" "s" (secs swf.self_ns);
    Common.metric "swf_stream.ns_per_job" "ns" (ratio swf.total_ns swf.calls);
    List.iter
      (fun (p, acc, d, stats) ->
        let k = Common.policy_key p in
        let sim = tot ("simulator." ^ k) and dec = tot ("decide." ^ k) in
        Common.metric ("simulator.self_s." ^ k) "s" (secs sim.self_ns);
        Common.metric ("simulator.words_per_event." ^ k) "words" (List.assq p untraced.words /. (2. *. jobs));
        Common.metric ("simulator.gc_runs." ^ k) "count" (float_of_int d.(5));
        Common.metric ("simulator.gc_reclaimed_per_run." ^ k) "nodes" (ratio acc.reclaimed d.(5));
        Common.metric ("simulator.gc_reclaim_ratio." ^ k) "ratio" (ratio acc.reclaimed acc.gc_before);
        Common.metric ("simulator.rollbacks_per_decision." ^ k) "ratio" (ratio d.(6) d.(7));
        Common.metric ("simulator.max_queued." ^ k) "count"
          (float_of_int (List.fold_left (fun a s -> max a s.Sim.max_queued) 0 stats));
        Common.metric ("simulator.max_live." ^ k) "count"
          (float_of_int (List.fold_left (fun a s -> max a s.Sim.max_live) 0 stats));
        let durs = Spans.durations_of ("decide." ^ k) in
        Common.metric ("policy.decide_s." ^ k) "s" (secs dec.total_ns);
        Common.metric ("policy.decide_calls." ^ k) "count" (float_of_int dec.calls);
        Common.metric ("policy.decide_us.p50." ^ k) "us" (Common.quantile durs 0.5 /. 1e3);
        Common.metric ("policy.decide_us.p99." ^ k) "us" (Common.quantile durs 0.99 /. 1e3);
        Common.metric ("policy.queue_len.mean." ^ k) "count" (ratio acc.qlen dec.calls);
        Common.metric ("policy.starts_per_call." ^ k) "count" (ratio acc.starts dec.calls);
        let per_job v = float_of_int v /. jobs in
        Common.metric ("timeline.fit_attempts_per_job." ^ k) "count" (per_job d.(0));
        Common.metric ("timeline.min_on_per_job." ^ k) "count" (per_job d.(1));
        Common.metric ("timeline.earliest_fit_per_job." ^ k) "count" (per_job d.(2));
        Common.metric ("timeline.changes_undone_per_job." ^ k) "count" (per_job d.(3));
        Common.metric ("timeline.gc_runs." ^ k) "count" (float_of_int d.(4)))
      per_policy;
    Common.metric "metrics_stream.self_s" "s" (secs (tot "metrics_stream").self_ns);
    Common.metric "heartbeat.self_s" "s" (secs (tot "heartbeat").self_ns);
    Offline.layer_metrics mark solves;
    Spans.write_perfetto ~limit:200_000 (Printf.sprintf "%s/%s/trace.json" Common.work_dir spec.name)

(* The traced run: untraced and traced passes alternate until the time is
   up. The first pair gives the per-layer metrics and the trace file; the
   ratio of the two kinds' median wall times is the tracing overhead. *)
let run_traced spec ~seed ~seconds =
  let inputs = setup spec ~seed in
  with_hb spec (fun hb_oc ->
      let refs = Hashtbl.create 16 in
      let deadline = Common.now_s () +. seconds in
      let untraced = ref [] and traced = ref [] in
      while !traced = [] || Common.now_s () < deadline do
        let first = !traced = [] in
        let major0 = (Gc.quick_stat ()).Gc.major_collections in
        let r, dt =
          Common.time (fun () ->
              let r = pass spec ~scale:false ~repeat:false ~hb_oc ~refs inputs in
              ignore (solve_all ~scale:false ~what:"exact solve" inputs);
              r)
        in
        if first then begin
          let words = List.fold_left (fun a (_, w) -> a +. w) 0. r.words in
          let jobs = float_of_int (spec.streams * spec.n * List.length Policy.all) in
          Common.metric "runtime.minor_words_per_job" "words" (words /. jobs);
          Common.metric "runtime.major_collections" "count"
            (float_of_int ((Gc.quick_stat ()).Gc.major_collections - major0))
        end;
        untraced := dt :: !untraced;
        Spans.enabled := true;
        Prof.enable ();
        Reg.enable ();
        let report, dt = Common.time (fun () -> traced_pass spec ~hb_oc ~refs ~untraced:r inputs) in
        Spans.enabled := false;
        Prof.disable ();
        Reg.disable ();
        if first then report ();
        traced := dt :: !traced
      done;
      validation spec ~seed ~refs inputs;
      Common.metric "trace.overhead_ratio" "ratio"
        (Common.median (Array.of_list !traced) /. Common.median (Array.of_list !untraced)))

(* The replay layers' per-layer metrics on a workload that does not replay
   (campaign): every run reports the same metric names. *)
let zero_layer_metrics () =
  List.iter (fun n -> Common.metric n "s" 0.) [ "swf_stream.self_s"; "metrics_stream.self_s"; "heartbeat.self_s" ];
  Common.metric "swf_stream.ns_per_job" "ns" 0.;
  List.iter
    (fun p ->
      let k = Common.policy_key p in
      List.iter
        (fun (n, u) -> Common.metric (n ^ "." ^ k) u 0.)
        [
          ("simulator.self_s", "s");
          ("simulator.words_per_event", "words");
          ("simulator.gc_runs", "count");
          ("simulator.gc_reclaimed_per_run", "nodes");
          ("simulator.gc_reclaim_ratio", "ratio");
          ("simulator.rollbacks_per_decision", "ratio");
          ("simulator.max_queued", "count");
          ("simulator.max_live", "count");
          ("policy.decide_s", "s");
          ("policy.decide_calls", "count");
          ("policy.decide_us.p50", "us");
          ("policy.decide_us.p99", "us");
          ("policy.queue_len.mean", "count");
          ("policy.starts_per_call", "count");
          ("timeline.fit_attempts_per_job", "count");
          ("timeline.min_on_per_job", "count");
          ("timeline.earliest_fit_per_job", "count");
          ("timeline.changes_undone_per_job", "count");
          ("timeline.gc_runs", "count");
        ])
    Policy.all
