(* The campaign workload: the paper-reproduction path, offline. The four
   list-scheduling algorithms on reservation-dense α-restricted instances,
   and the exact solver with its lower bound on the fixed exact-solve set. *)

open Resa_core

let default_seed = 1235
let big_count = 8
let big_n = 2000
let exact_count = 100
let exact_rounds = 2

(* Seconds of one measured pass, for [Common.passes]. *)
let pass_s = 9.5

(* Times a measured pass schedules every instance, by algorithm (1 when
   absent), so that the cheap algorithms are timed over as much work as
   the dear ones: an FCFS schedule takes ~7 ms, an EASY one ~340 ms. *)
let reps = [ ("fcfs", 6); ("lsrc", 2) ]

type inputs = { big : Instance.t list; exact : Instance.t list }

(* The [reserved_workload] family of bench/perf.ml: m=128, n=2000, α=0.5,
   pmax=100, n/5 reservations requested. *)
let setup_once ~seed =
  let rng = Prng.create ~seed in
  {
    big =
      List.init big_count (fun _ ->
          Resa_gen.Random_inst.alpha_restricted rng ~m:128 ~n:big_n ~alpha:0.5 ~pmax:100
            ~n_reservations:(big_n / 5) ());
    exact = List.init exact_count (fun i -> Offline.exact_instance (i + 1));
  }

let what a i = Printf.sprintf "campaign %s instance %d" a.Offline.key i

(* One round of exact solves over the whole set. *)
let solve_all ~scale inputs =
  let solves = Offline.solve_round ~scale ~what:"campaign exact solve" inputs.exact in
  Common.guard "campaign: every exact instance solved to optimality"
    (List.for_all (function Some (x : Offline.solved) -> x.optimal | None -> true) solves);
  solves

(* One pass: each algorithm over the instances, back to back, [reps]
   times over with [~repeat]; returns the seconds each algorithm took per
   schedule of every instance, at the reference speed with [~scale]
   (Common.timed_items). The first schedule of each instance records its
   starts; every later one must reproduce them. *)
let pass ~scale ~repeat ~first ~run inputs =
  let big = Array.of_list inputs.big in
  let n = Array.length big in
  List.map
    (fun (a : Offline.algo) ->
      let r = if repeat then Option.value (List.assoc_opt a.key reps) ~default:1 else 1 in
      let t =
        Common.timed_total ~scale (r * n) (fun j ->
            let i = j mod n in
            Common.op (what a i) (fun () ->
                let s = run a big.(i) in
                if not (Hashtbl.mem first (a.key, i)) then Hashtbl.replace first (a.key, i) (Schedule.starts s);
                Common.checks [ ("starts equal the first pass", Schedule.starts s = Hashtbl.find first (a.key, i)) ]))
      in
      (a.key, t /. float_of_int r))
    Offline.algos

(* After the measured passes: the full checks on each schedule of the first
   pass, and the golden digests of the default seed. *)
let validation ~seed ~first inputs =
  List.iter
    (fun (a : Offline.algo) ->
      List.iteri
        (fun i inst ->
          Common.op (what a i ^ " (validation)") (fun () ->
              let starts = Hashtbl.find first (a.key, i) in
              Common.checks
                (( "golden digest",
                   Common.golden_ok ~workload:"campaign" ~default_seed ~seed
                     (Printf.sprintf "%s.%d" a.key i)
                     (Common.digest_starts starts) )
                :: Offline.schedule_checks inst a (Schedule.make starts))))
        inputs.big)
    Offline.algos

(* A fixed number of measured passes, the first of them the reference, with
   the exact rounds spread among them. An algorithm's time is its median
   over the passes of its time over the instances, at the reference speed
   (Common.timed_items); each instance's solve time is its median over the
   rounds. *)
let run ~seed ~seconds =
  let inputs = Common.time_setup (fun () -> setup_once ~seed) in
  let first = Hashtbl.create 16 in
  let passes = Common.passes ~pass_s ~seconds in
  let start = Common.now_s () in
  let times, rounds, exact_s =
    Common.measure ~passes ~rounds:exact_rounds
      ~pass:(fun () -> pass ~scale:true ~repeat:true ~first ~run:(fun a inst -> a.Offline.run inst) inputs)
      ~round:(fun () -> solve_all ~scale:true inputs)
  in
  let peak_rss_mb = Common.peak_rss_mb () in
  Printf.eprintf "perfbench: campaign seed %d: %d passes and %d exact rounds (%.1f s) in %.1f s%s\n%!" seed
    passes exact_rounds exact_s (Common.now_s () -. start) (Common.speed_note ());
  validation ~seed ~first inputs;
  Common.metric "setup_s" "s" (Common.setup_s ());
  Common.metric "peak_rss_mb" "MB" peak_rss_mb;
  List.iter
    (fun (a : Offline.algo) ->
      let t = Common.median_of (List.map (List.assoc a.key) times) in
      Common.metric ("jobs_per_s." ^ a.key) "1/s" (float_of_int (big_count * big_n) /. t);
      Common.metric ("schedules_per_s." ^ a.key) "1/s" (float_of_int big_count /. t))
    Offline.algos;
  Offline.bnb_metrics rounds

(* The traced run: untraced and traced passes (heuristics and exact solves)
   alternate until the time is up; the first traced pass gives the
   per-layer metrics and the trace file. *)
let run_traced ~seed ~seconds =
  let inputs = setup_once ~seed in
  let first = Hashtbl.create 16 in
  let deadline = Common.now_s () +. seconds in
  let untraced = ref [] and traced = ref [] in
  while !traced = [] || Common.now_s () < deadline do
    let w0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
    let _, dt =
      Common.time (fun () ->
          ignore (pass ~scale:false ~repeat:false ~first ~run:(fun a inst -> a.Offline.run inst) inputs);
          solve_all ~scale:false inputs)
    in
    if !untraced = [] then begin
      (* Jobs scheduled in a pass: the heuristics' schedules and the solves. *)
      let jobs = float_of_int ((List.length Offline.algos * big_count * big_n) + (exact_count * 8)) in
      Common.metric "runtime.minor_words_per_job" "words" ((Gc.minor_words () -. w0) /. jobs);
      Common.metric "runtime.major_collections" "count"
        (float_of_int ((Gc.quick_stat ()).Gc.major_collections - major0))
    end;
    untraced := dt :: !untraced;
    Spans.reset ();
    Spans.enabled := true;
    Resa_obs.Prof.enable ();
    Offline.reset_accs ();
    let mark = Offline.bnb_mark () in
    let solves, dt =
      Common.time (fun () ->
          ignore (pass ~scale:false ~repeat:false ~first ~run:Offline.run inputs);
          List.filter_map Fun.id (solve_all ~scale:false inputs))
    in
    Spans.enabled := false;
    Resa_obs.Prof.disable ();
    if !traced = [] then begin
      let _, broken = Spans.aggregate () in
      Common.op "trace: child spans within their parents" (fun () ->
          List.map (fun nm -> "children of " ^ nm ^ " exceed it") broken);
      Offline.layer_metrics mark solves;
      Common.mkdir_p (Common.work_dir ^ "/campaign");
      Spans.write_perfetto ~limit:200_000 (Common.work_dir ^ "/campaign/trace.json")
    end;
    traced := dt :: !traced
  done;
  validation ~seed ~first inputs;
  Replay.zero_layer_metrics ();
  Common.metric "trace.overhead_ratio" "ratio"
    (Common.median (Array.of_list !traced) /. Common.median (Array.of_list !untraced))
