open Resa_core
open Resa_swf

let sample_line = "1 0 5 100 8 -1 -1 8 120 -1 1 3 1 1 1 1 -1 -1"

let drain = Swf_stream.to_list

(* Every entry of a rendered trace, parsed line by line. *)
let parse_all text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match Swf.parse_line line with Ok e -> e | Error msg -> Alcotest.fail msg)

let test_parse_line () =
  match Swf.parse_line sample_line with
  | Ok (Some e) ->
    Alcotest.(check int) "job number" 1 e.Swf.job_number;
    Alcotest.(check int) "submit" 0 e.Swf.submit;
    Alcotest.(check int) "wait" 5 e.Swf.wait;
    Alcotest.(check int) "run" 100 e.Swf.run;
    Alcotest.(check int) "req procs" 8 e.Swf.req_procs;
    Alcotest.(check int) "think time" (-1) e.Swf.think_time
  | Ok None -> Alcotest.fail "entry expected"
  | Error msg -> Alcotest.fail msg

let test_parse_comments_and_blanks () =
  (match Swf.parse_line "; UnixStartTime: 0" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment not skipped");
  match Swf.parse_line "   " with
  | Ok None -> ()
  | _ -> Alcotest.fail "blank not skipped"

let test_parse_rejects_short_lines () =
  match Swf.parse_line "1 2 3" with
  | Error msg -> Alcotest.(check bool) "mentions field count" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "short line accepted"

let test_parse_rejects_garbage () =
  match Swf.parse_line "1 0 5 abc 8 -1 -1 8 120 -1 1 3 1 1 1 1 -1 -1" with
  | Error msg -> Alcotest.(check bool) "names the field" true (String.length msg > 4)
  | Ok _ -> Alcotest.fail "garbage accepted"

let test_parse_accepts_float_fields () =
  match Swf.parse_line "1 0 5 100 8 12.5 -1 8 120 -1 1 3 1 1 1 1 -1 -1" with
  | Ok (Some e) -> Alcotest.(check int) "truncated" 12 e.Swf.avg_cpu
  | _ -> Alcotest.fail "float field rejected"

let test_parse_crlf_line () =
  (* Windows-edited archives carry \r\n; the trailing \r used to glue onto
     the last field and break its numeric conversion. *)
  match Swf.parse_line (sample_line ^ "\r") with
  | Ok (Some e) ->
    Alcotest.(check int) "last field survives CRLF" (-1) e.Swf.think_time;
    Alcotest.(check int) "run" 100 e.Swf.run
  | Ok None -> Alcotest.fail "entry expected"
  | Error msg -> Alcotest.fail msg

let test_crlf_file () =
  let text = "; header\r\n" ^ sample_line ^ "\r\n\r\n" ^ sample_line ^ "\r\n" in
  Alcotest.(check int) "both entries parsed" 2 (List.length (drain (Swf_stream.of_string ~m:8 text)))

let test_parse_ceils_float_durations () =
  (* Archives report sub-second runtimes as floats. Truncation turned a
     0.9-second job into run = 0 — a phantom that [keep] then dropped.
     Durations must round up; the resource-usage fields still truncate. *)
  match Swf.parse_line "1 0 5 0.9 8 12.7 -1 8 10.2 -1 1 3 1 1 1 1 -1 -1" with
  | Ok (Some e) ->
    Alcotest.(check int) "run ceiled" 1 e.Swf.run;
    Alcotest.(check int) "req_time ceiled" 11 e.Swf.req_time;
    Alcotest.(check int) "avg_cpu still truncates" 12 e.Swf.avg_cpu
  | Ok None -> Alcotest.fail "entry expected"
  | Error msg -> Alcotest.fail msg

let test_job_numbers_map () =
  let entry job_number status = { Swf.default with Swf.job_number; req_procs = 1; run = 5; status } in
  let entries = [ entry 17 1; entry 23 0; entry 42 1 ] in
  let numbers ?keep_failed () =
    List.map
      (fun (a : Swf_stream.arrival) -> (Job.id a.job, a.job_number))
      (drain (Swf_stream.of_entries ?keep_failed ~m:4 entries))
  in
  Alcotest.(check (list (pair int int))) "all kept" [ (0, 17); (1, 23); (2, 42) ] (numbers ());
  Alcotest.(check (list (pair int int))) "failed dropped, ids renumbered" [ (0, 17); (1, 42) ]
    (numbers ~keep_failed:false ())

let test_file_error_line () =
  let text = "; header\n" ^ sample_line ^ "\nbad line\n" in
  match drain (Swf_stream.of_string ~m:8 text) with
  | exception Swf_stream.Parse_error { line; msg } ->
    Alcotest.(check int) "line number cited" 3 line;
    Alcotest.(check bool) "reason given" true (String.length msg > 0)
  | _ -> Alcotest.fail "bad file accepted"

let test_round_trip () =
  let rng = Prng.create ~seed:41 in
  let entries = Swf.generate rng ~m:32 ~n:50 ~max_runtime:500 ~mean_gap:4.0 in
  let entries' = parse_all (Swf.to_string ~comments:[ "synthetic" ] entries) in
  Alcotest.(check int) "count preserved" 50 (List.length entries');
  List.iter2 (fun a b -> if a <> b then Alcotest.fail "entry changed in round trip") entries entries'

let test_reader_clamps () =
  (* Width clamped to [1, m], submit to [>= 0], runtime to at least 1 — a
     missing runtime does not borrow the request — and the walltime to at
     least the runtime. *)
  let e = { Swf.default with Swf.req_procs = 100; submit = -5; run = 0; req_time = 7 } in
  match drain (Swf_stream.of_entries ~m:16 [ e ]) with
  | [ a ] ->
    Alcotest.(check int) "procs clamped to m" 16 (Job.q a.job);
    Alcotest.(check int) "runtime at least 1" 1 (Job.p a.job);
    Alcotest.(check int) "walltime is the request" 7 a.estimate;
    Alcotest.(check int) "submit clamped" 0 a.submit
  | _ -> Alcotest.fail "one job expected"

let test_reader_skips_phantoms () =
  (* Entries with neither a positive run nor a positive req_time carry no
     work (cancelled before start); they used to surface as phantom
     1-second jobs. Kept entries are renumbered consecutively. *)
  let worker run req_time = { Swf.default with Swf.req_procs = 2; run; req_time } in
  let entries = [ worker 10 (-1); worker 0 0; worker (-1) (-1); worker (-1) 7 ] in
  match drain (Swf_stream.of_entries ~m:8 entries) with
  | [ a; b ] ->
    Alcotest.(check int) "real job kept" 10 (Job.p a.job);
    Alcotest.(check int) "request-only entry kept" 7 b.estimate;
    Alcotest.(check int) "ids renumbered" 1 (Job.id b.job)
  | l -> Alcotest.fail (Printf.sprintf "%d jobs, expected 2" (List.length l))

let test_keep_failed () =
  let entry status = { Swf.default with Swf.req_procs = 1; run = 5; status } in
  let entries = [ entry 1; entry 0; entry 5 ] in
  let kept ?keep_failed () = List.length (drain (Swf_stream.of_entries ?keep_failed ~m:4 entries)) in
  Alcotest.(check int) "failed kept by default" 3 (kept ());
  Alcotest.(check int) "failed dropped on request" 2 (kept ~keep_failed:false ());
  Alcotest.(check int) "line-backed sources filter too" 2
    (List.length
       (drain (Swf_stream.of_string ~keep_failed:false ~m:4 (Swf.to_string entries))))

let test_of_workload_waits () =
  let job = Job.make ~id:0 ~p:10 ~q:4 in
  match Swf.of_workload [ (job, 3, 8) ] with
  | [ e ] ->
    Alcotest.(check int) "wait" 5 e.Swf.wait;
    Alcotest.(check int) "run" 10 e.Swf.run;
    Alcotest.(check int) "procs" 4 e.Swf.req_procs
  | _ -> Alcotest.fail "one entry expected"

let test_generated_trace_drives_simulator () =
  let rng = Prng.create ~seed:42 in
  let entries = Swf.generate rng ~m:16 ~n:30 ~max_runtime:100 ~mean_gap:5.0 in
  let subs =
    List.map
      (fun (a : Swf_stream.arrival) -> Resa_sim.Simulator.{ job = a.job; submit = a.submit; estimate = a.estimate })
      (drain (Swf_stream.of_entries ~m:16 entries))
  in
  let trace = Resa_sim.Simulator.run ~policy:Resa_sim.Policy.easy ~m:16 subs in
  let inst, sched = Resa_sim.Simulator.to_offline trace in
  Tutil.check_feasible "SWF-driven simulation" inst sched

let prop_round_trip =
  Tutil.qcheck ~count:50 "generate |> print |> parse is the identity" Tutil.seed_arb (fun seed ->
      let rng = Prng.create ~seed in
      let entries = Swf.generate rng ~m:8 ~n:10 ~max_runtime:50 ~mean_gap:2.0 in
      parse_all (Swf.to_string entries) = entries)

let suite =
  [
    Alcotest.test_case "parse a standard line" `Quick test_parse_line;
    Alcotest.test_case "comments and blanks skipped" `Quick test_parse_comments_and_blanks;
    Alcotest.test_case "short lines rejected" `Quick test_parse_rejects_short_lines;
    Alcotest.test_case "non-numeric fields rejected" `Quick test_parse_rejects_garbage;
    Alcotest.test_case "float fields tolerated" `Quick test_parse_accepts_float_fields;
    Alcotest.test_case "CRLF line endings tolerated" `Quick test_parse_crlf_line;
    Alcotest.test_case "CRLF files parse whole" `Quick test_crlf_file;
    Alcotest.test_case "float durations round up" `Quick test_parse_ceils_float_durations;
    Alcotest.test_case "job_numbers aligns with renumbered ids" `Quick test_job_numbers_map;
    Alcotest.test_case "errors cite line numbers" `Quick test_file_error_line;
    Alcotest.test_case "writer/parser round trip" `Quick test_round_trip;
    Alcotest.test_case "reader clamps widths and submits" `Quick test_reader_clamps;
    Alcotest.test_case "reader skips phantom entries" `Quick test_reader_skips_phantoms;
    Alcotest.test_case "keep_failed filters status 0" `Quick test_keep_failed;
    Alcotest.test_case "of_workload computes waits" `Quick test_of_workload_waits;
    Alcotest.test_case "generated trace drives the simulator" `Quick test_generated_trace_drives_simulator;
    prop_round_trip;
  ]
