(* The one SWF reader and the two simulator entries: every reader source
   converts through one kernel, the batch entry [Simulator.run] and the
   streaming [run_stream] are observationally identical (byte-identical
   event traces), and the incremental metrics match the batch summaries
   bit for bit. *)

open Resa_core
open Resa_swf
open Resa_sim

(* --- helpers ------------------------------------------------------------ *)

let policies =
  [ Policy.fcfs; Policy.easy; Policy.conservative; Policy.aggressive ]

let synthetic_text seed ~n =
  let rng = Prng.create ~seed in
  Swf.to_string ~comments:[ "oracle" ]
    (Swf.generate rng ~m:32 ~n ~max_runtime:200 ~mean_gap:6.0)

let drain src =
  let rec go acc = match src () with None -> List.rev acc | Some a -> go (a :: acc) in
  go []

let to_sim (a : Swf_stream.arrival) =
  Simulator.{ job = a.job; submit = a.submit; estimate = a.estimate }

let feed (arrivals : Swf_stream.arrival list) =
  let rest = ref arrivals in
  fun () ->
    match !rest with
    | [] -> None
    | a :: tl ->
      rest := tl;
      Some (to_sim a)

(* --- reader: one kernel behind every source ----------------------------- *)

(* A generated trace with failed (status 0) and no-work entries mixed in,
   so the keep rule has something to filter. *)
let mixed_entries seed ~n =
  let rng = Prng.create ~seed in
  let entries = Swf.generate rng ~m:32 ~n ~max_runtime:200 ~mean_gap:6.0 in
  List.map
    (fun (e : Swf.entry) ->
      match Prng.int rng ~bound:6 with
      | 0 -> { e with status = 0 }
      | 1 -> { e with run = -1; req_time = -1 }
      | _ -> e)
    entries

(* Text and entry sources agree, and both keep exactly the entries that
   carry work and, under [keep_failed:false], did not fail — renumbered
   consecutively, archive numbers kept. *)
let sources_agree keep_failed seed =
  let entries = mixed_entries seed ~n:25 in
  let text = Swf.to_string ~comments:[ "oracle" ] entries in
  let from_text = drain (Swf_stream.of_string ~keep_failed ~m:32 text) in
  let from_entries = drain (Swf_stream.of_entries ~keep_failed ~m:32 entries) in
  let kept =
    List.filter
      (fun (e : Swf.entry) -> (e.run > 0 || e.req_time > 0) && (keep_failed || e.status <> 0))
      entries
  in
  from_text = from_entries
  && List.map (fun (a : Swf_stream.arrival) -> a.job_number) from_text
     = List.map (fun (e : Swf.entry) -> e.job_number) kept
  && List.for_all Fun.id (List.mapi (fun i (a : Swf_stream.arrival) -> Job.id a.job = i) from_text)

let prop_reader_oracle =
  Tutil.qcheck ~count:200 "of_string = of_entries" Tutil.seed_arb (sources_agree true)

let prop_reader_oracle_filtered =
  Tutil.qcheck ~count:100 "reader oracle with keep_failed:false" Tutil.seed_arb
    (sources_agree false)

let test_stream_parse_error_line () =
  let text = "; header\n" ^ "1 0 5 100 8 -1 -1 8 120 -1 1 3 1 1 1 1 -1 -1" ^ "\nbad line\n" in
  let src = Swf_stream.of_string ~m:8 text in
  (match src () with Some _ -> () | None -> Alcotest.fail "first entry expected");
  match src () with
  | exception Swf_stream.Parse_error { line; _ } ->
    Alcotest.(check int) "line number" 3 line
  | _ -> Alcotest.fail "Parse_error expected"

(* Entries the simulator cannot replay are input errors at their line, not
   engine failures later: a decreasing submit, or a time past the bound. *)
let test_stream_rejects_unreplayable () =
  let line ~submit ~run ~req =
    Printf.sprintf "1 %d 0 %d 2 -1 -1 2 %d -1 1 1 1 1 1 1 -1 -1" submit run req
  in
  let error_line text =
    match drain (Swf_stream.of_string ~m:8 text) with
    | _ -> Alcotest.fail "Parse_error expected"
    | exception Swf_stream.Parse_error { line; _ } -> line
  in
  Alcotest.(check int) "decreasing submit" 3
    (error_line
       (String.concat "\n"
          [
            line ~submit:100 ~run:5 ~req:10;
            line ~submit:100 ~run:5 ~req:10;
            line ~submit:50 ~run:5 ~req:10;
          ]));
  Alcotest.(check int) "submit near max_int" 2
    (error_line
       (String.concat "\n" [ "; header"; line ~submit:4611686018427387000 ~run:5 ~req:10 ]));
  Alcotest.(check int) "walltime past the bound" 1
    (error_line (line ~submit:0 ~run:5 ~req:(Instance.max_time + 1)));
  (* The bound itself and equal submits are accepted; a negative submit is
     clamped to 0, so it cannot decrease. *)
  let ok =
    String.concat "\n"
      [ line ~submit:(-1) ~run:5 ~req:10; line ~submit:0 ~run:5 ~req:Instance.max_time;
        line ~submit:Instance.max_time ~run:5 ~req:10 ]
  in
  Alcotest.(check (list int)) "accepted submits" [ 0; 0; Instance.max_time ]
    (List.map (fun (a : Swf_stream.arrival) -> a.submit) (drain (Swf_stream.of_string ~m:8 ok)))

(* Parsed entries pass the same checks, at their 1-based list position. *)
let test_of_entries_rejects_unreplayable () =
  let entry submit req_time = { Swf.default with Swf.submit; run = 5; req_procs = 2; req_time } in
  let error_pos entries =
    match drain (Swf_stream.of_entries ~m:8 entries) with
    | _ -> Alcotest.fail "Parse_error expected"
    | exception Swf_stream.Parse_error { line; _ } -> line
  in
  Alcotest.(check int) "decreasing submit" 2 (error_pos [ entry 100 10; entry 50 10 ]);
  Alcotest.(check int) "submit past the bound" 3
    (error_pos [ entry 0 10; entry 0 10; entry (Instance.max_time + 1) 10 ]);
  Alcotest.(check int) "walltime past the bound" 1 (error_pos [ entry 0 (Instance.max_time + 1) ])

let test_stream_file_roundtrip () =
  let text = synthetic_text 7 ~n:20 in
  let path = Filename.temp_file "resa_stream" ".swf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
      let from_file = Swf_stream.with_file ~m:32 path drain in
      let from_string = drain (Swf_stream.of_string ~m:32 text) in
      Alcotest.(check int) "same length" (List.length from_string) (List.length from_file);
      if from_file <> from_string then Alcotest.fail "file and string streams differ")

let test_synthetic_shape () =
  let gen () =
    let rng = Prng.create ~seed:11 in
    drain (Swf_stream.synthetic ~overestimate:2.0 rng ~m:64 ~n:500 ~max_runtime:300 ~mean_gap:4.0)
  in
  let xs = gen () in
  Alcotest.(check int) "exactly n arrivals" 500 (List.length xs);
  if gen () <> xs then Alcotest.fail "same seed must replay identically";
  let last = ref 0 in
  List.iteri
    (fun i (a : Swf_stream.arrival) ->
      if Job.id a.job <> i then Alcotest.failf "id %d at position %d" (Job.id a.job) i;
      if a.submit < !last then Alcotest.fail "submits must be non-decreasing";
      last := a.submit;
      if a.estimate < Job.p a.job then Alcotest.fail "estimate below runtime";
      if Job.q a.job < 1 || Job.q a.job > 64 then Alcotest.fail "width out of range")
    xs

(* --- simulator: run vs run_stream ---------------------------------------- *)

let arrivals_of_seed seed ~n =
  let rng = Prng.create ~seed in
  drain (Swf_stream.synthetic ~overestimate:2.0 rng ~m:16 ~n ~max_runtime:60 ~mean_gap:3.0)

let engines_agree ~gc_every policy seed =
  let arrivals = arrivals_of_seed seed ~n:30 in
  let obs_b = Resa_obs.Trace.buffer () in
  let trace = Simulator.run ~obs:obs_b ~policy ~m:16 (List.map to_sim arrivals) in
  let obs_s = Resa_obs.Trace.buffer () in
  let records = ref [] in
  let stats =
    Simulator.run_stream ~obs:obs_s ~gc_every ~policy ~m:16
      ~on_record:(fun r -> records := r :: !records)
      (feed arrivals)
  in
  let by_id =
    List.sort (fun (a : Simulator.record) b -> compare (Job.id a.job) (Job.id b.job))
  in
  stats.Simulator.jobs = List.length arrivals
  && stats.Simulator.makespan = trace.Simulator.makespan
  && by_id !records = by_id trace.Simulator.records
  && Resa_obs.Trace.contents obs_s = Resa_obs.Trace.contents obs_b

let engine_props =
  List.concat_map
    (fun (policy : Policy.t) ->
      [
        Tutil.qcheck ~count:150
          (Printf.sprintf "run = run_stream (%s)" policy.Policy.name)
          Tutil.seed_arb
          (engines_agree ~gc_every:0 policy);
        Tutil.qcheck ~count:60
          (Printf.sprintf "gc_every:1 is invisible (%s)" policy.Policy.name)
          Tutil.seed_arb
          (engines_agree ~gc_every:1 policy);
      ])
    policies

(* A reservation calendar whose capacity tree stays above the timeline's
   16384-node compaction floor even when compacted: every reservation edge
   sits at an arbitrary instant of a ~800k-unit horizon, so each needs its
   own deep path. Fixed node-count triggers rebuilt such a tree on every
   decision and reclaimed nothing; the self-sizing rule must not. *)
let calendar_m = 128

let dense_calendar () =
  let rng = Prng.create ~seed:2007 in
  List.init 480 (fun i ->
      Reservation.make ~id:i ~start:((1700 * i) + Prng.int rng ~bound:700) ~p:1000
        ~q:(calendar_m / 4))

(* Jobs at most half the machine wide always fit beside a reservation, so
   no head waits for the calendar to end and the replay stays short. *)
let calendar_jobs () =
  let rng = Prng.create ~seed:4242 in
  let clock = ref 0 in
  List.init 120 (fun id ->
      clock := !clock + Prng.int rng ~bound:300;
      let p = Prng.int_incl rng ~lo:1 ~hi:2000 in
      Simulator.
        {
          job = Job.make ~id ~p ~q:(Prng.int_incl rng ~lo:1 ~hi:(calendar_m / 2));
          submit = !clock;
          estimate = p + Prng.int rng ~bound:p;
        })

(* Starts, [Timeline.gc] calls (engine and plan trees alike) and decisions
   of one replay against the calendar. *)
let replay_under_calendar ?(gc_every = 0) policy =
  let starts = ref [] and decisions = ref 0 in
  let counting =
    {
      policy with
      Policy.create =
        (fun ~obs ->
          let decide = policy.Policy.create ~obs in
          fun ~time ~queue ~free ->
            incr decisions;
            decide ~time ~queue ~free);
    }
  in
  let was = Resa_obs.Prof.enabled () in
  Resa_obs.Prof.enable ();
  Resa_obs.Prof.reset ();
  Fun.protect
    ~finally:(fun () -> if not was then Resa_obs.Prof.disable ())
    (fun () ->
      let rest = ref (calendar_jobs ()) in
      ignore
        (Simulator.run_stream ~gc_every ~policy:counting ~m:calendar_m
           ~reservations:(dense_calendar ())
           ~on_record:(fun r -> starts := (Job.id r.job, r.start) :: !starts)
           (fun () ->
             match !rest with
             | [] -> None
             | a :: tl ->
               rest := tl;
               Some a));
      let gcs =
        Option.value ~default:0 (List.assoc_opt "timeline.gc" (Resa_obs.Prof.counters ()))
      in
      (List.sort compare !starts, gcs, !decisions))

let test_calendar_gc_bounded () =
  let calendar = Instance.create_exn ~m:calendar_m ~jobs:[] ~reservations:(dense_calendar ()) in
  Alcotest.(check bool) "calendar tree above the floor" true
    (Timeline.node_count (Timeline.of_profile (Instance.availability calendar)) > 16384);
  List.iter
    (fun (policy : Policy.t) ->
      let starts, gcs, decisions = replay_under_calendar policy in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d gcs over %d decisions" policy.Policy.name gcs decisions)
        true
        (decisions >= 300 && gcs <= 20);
      let forced, _, _ = replay_under_calendar ~gc_every:1 policy in
      Alcotest.(check (list (pair int int)))
        (policy.Policy.name ^ " starts = gc_every:1 starts")
        forced starts)
    [ Policy.fcfs; Policy.conservative ]

let test_stream_validates_arrivals () =
  let job = Job.make ~id:0 ~p:5 ~q:2 in
  let once a =
    let sent = ref false in
    fun () -> if !sent then None else (sent := true; Some a)
  in
  let run a = ignore (Simulator.run_stream ~policy:Policy.fcfs ~m:4 (once a)) in
  Alcotest.check_raises "negative submit"
    (Invalid_argument "Simulator.run_stream: negative submit time") (fun () ->
      run Simulator.{ job; submit = -1; estimate = 5 });
  Alcotest.check_raises "estimate below runtime"
    (Invalid_argument "Simulator.run_stream: estimate below the actual runtime") (fun () ->
      run Simulator.{ job; submit = 0; estimate = 4 });
  let wide = Job.make ~id:0 ~p:5 ~q:9 in
  Alcotest.check_raises "too wide"
    (Invalid_argument "Simulator.run_stream: job wider than the machine") (fun () ->
      run Simulator.{ job = wide; submit = 0; estimate = 5 })

(* Archive job numbers reach the per-job rows through the drained arrivals,
   aligned with the renumbered ids even when failed entries are dropped. *)
let test_per_job_numbers_from_arrivals () =
  let line number status =
    Printf.sprintf "%d 0 0 5 1 -1 -1 1 5 -1 %d 1 1 1 1 1 -1 -1" number status
  in
  let text = String.concat "\n" [ line 17 1; line 23 0; line 42 1 ] in
  let arrivals = drain (Swf_stream.of_string ~keep_failed:false ~m:4 text) in
  let job_numbers =
    Array.of_list (List.map (fun (a : Swf_stream.arrival) -> a.job_number) arrivals)
  in
  let trace = Simulator.run ~policy:Policy.fcfs ~m:4 (List.map to_sim arrivals) in
  Alcotest.(check (list int)) "archive numbers" [ 17; 42 ]
    (List.map (fun (r : Metrics.job_row) -> r.job_number) (Metrics.per_job ~job_numbers trace))

(* --- metrics: Stream vs summarize --------------------------------------- *)

let bits = Int64.bits_of_float

let summaries_identical (a : Metrics.summary) (b : Metrics.summary) =
  a.n = b.n && a.makespan = b.makespan && a.max_wait = b.max_wait
  && bits a.mean_wait = bits b.mean_wait
  && bits a.mean_slowdown = bits b.mean_slowdown
  && bits a.mean_bounded_slowdown = bits b.mean_bounded_slowdown
  && bits a.utilization = bits b.utilization

let metrics_agree seed =
  let arrivals = arrivals_of_seed seed ~n:40 in
  let ms = Metrics.Stream.create ~m:16 ~reservations:[] () in
  ignore
    (Simulator.run_stream ~policy:Policy.easy ~m:16
       ~on_record:(Metrics.Stream.observe ms) (feed arrivals)
      : Simulator.stream_stats);
  let trace = Simulator.run ~policy:Policy.easy ~m:16 (List.map to_sim arrivals) in
  summaries_identical (Metrics.Stream.summary ms) (Metrics.summarize trace)

let prop_metrics_bitwise =
  Tutil.qcheck ~count:200 "Metrics.Stream = summarize, bit for bit" Tutil.seed_arb metrics_agree

let test_stream_metrics_empty () =
  let ms = Metrics.Stream.create ~m:4 ~reservations:[] () in
  Alcotest.(check int) "no observations" 0 (Metrics.Stream.count ms);
  let s = Metrics.Stream.summary ms in
  Alcotest.(check int) "degenerate n" 0 s.Metrics.n;
  Alcotest.(check bool) "nan utilization" true (Float.is_nan s.Metrics.utilization);
  Alcotest.(check bool) "nan percentile" true (Float.is_nan (Metrics.Stream.wait_p50 ms))

(* --- queue: Jobq vs a list model ---------------------------------------- *)

let jobq_matches_model seed =
  let rng = Prng.create ~seed in
  let q = Jobq.create () in
  let model = ref [] in
  let ok = ref true in
  for i = 0 to 120 do
    (match Prng.int rng ~bound:3 with
    | 0 | 1 ->
      let j = Job.make ~id:i ~p:1 ~q:1 in
      (* The simulator tags each entry with its live slot; here the tag is
         an arbitrary function of the id so the filter exercises it. *)
      Jobq.append q j ~tag:(i * 7);
      model := !model @ [ (j, i * 7) ]
    | _ ->
      let bit = Prng.int rng ~bound:2 in
      let keep tag = tag / 7 land 1 = bit in
      Jobq.filter q keep;
      model := List.filter (fun (_, tag) -> keep tag) !model);
    let n = Jobq.length q in
    if n <> List.length !model then ok := false
    else
      List.iteri
        (fun i (j, tag) ->
          if not (Jobq.get q i == j && Jobq.tag q i = tag) then ok := false)
        !model;
    if Jobq.to_list q <> List.map fst !model then ok := false
  done;
  !ok

let prop_jobq_model =
  Tutil.qcheck ~count:300 "Jobq behaves as a tagged FIFO array" Tutil.seed_arb
    jobq_matches_model

let suite =
  [
    prop_reader_oracle;
    prop_reader_oracle_filtered;
    Alcotest.test_case "parse errors carry line numbers" `Quick test_stream_parse_error_line;
    Alcotest.test_case "unreplayable entries rejected at their line" `Quick
      test_stream_rejects_unreplayable;
    Alcotest.test_case "of_entries rejects bad entries" `Quick
      test_of_entries_rejects_unreplayable;
    Alcotest.test_case "file and string streams agree" `Quick test_stream_file_roundtrip;
    Alcotest.test_case "synthetic stream shape and determinism" `Quick test_synthetic_shape;
    Alcotest.test_case "bad arrivals rejected" `Quick test_stream_validates_arrivals;
    Alcotest.test_case "gc stays rare under a dense reservation calendar" `Quick
      test_calendar_gc_bounded;
    Alcotest.test_case "per_job job_number from arrivals" `Quick
      test_per_job_numbers_from_arrivals;
    Alcotest.test_case "empty stream metrics are degenerate" `Quick test_stream_metrics_empty;
    prop_metrics_bitwise;
    prop_jobq_model;
  ]
  @ engine_props
