(* The offline half: the four list-scheduling algorithms on whole
   instances, and the exact solver with the paper's bounds as checks. *)

open Resa_core
module Algos = Resa_algos

type algo = { key : string; run : Instance.t -> Schedule.t; span : int }

let algos =
  [
    { key = "lsrc"; run = (fun i -> Algos.Lsrc.run i); span = Spans.name "offline.lsrc" };
    { key = "fcfs"; run = (fun i -> Algos.Fcfs.run i); span = Spans.name "offline.fcfs" };
    {
      key = "cons";
      run = (fun i -> Algos.Backfill.conservative i);
      span = Spans.name "offline.cons";
    };
    { key = "easy"; run = (fun i -> Algos.Backfill.easy i); span = Spans.name "offline.easy" };
  ]

(* Counters of the traced run, per algorithm: schedules computed and the
   Timeline operations they issued (from the program's Prof counters). *)
module Prof = Resa_obs.Prof

let c_fit = Prof.counter "timeline.fit_attempts"
let c_min_on = Prof.counter "timeline.min_on"
let c_instants = Prof.counter "lsrc.decision_instants"

type acc = { mutable calls : int; mutable fits : int; mutable min_ons : int; mutable instants : int }

let accs = List.map (fun a -> (a.key, { calls = 0; fits = 0; min_ons = 0; instants = 0 })) algos

let reset_accs () =
  List.iter
    (fun (_, c) ->
      c.calls <- 0;
      c.fits <- 0;
      c.min_ons <- 0;
      c.instants <- 0)
    accs

(* Run one algorithm inside its span, crediting its Timeline operations. *)
let run algo inst =
  let c = List.assoc algo.key accs in
  let f0 = Prof.value c_fit and m0 = Prof.value c_min_on and i0 = Prof.value c_instants in
  let s = Spans.wrap algo.span (fun () -> algo.run inst) in
  c.calls <- c.calls + 1;
  c.fits <- c.fits + Prof.value c_fit - f0;
  c.min_ons <- c.min_ons + Prof.value c_min_on - m0;
  c.instants <- c.instants + Prof.value c_instants - i0;
  s

(* The schedule checks for one algorithm's output: feasibility, plus the
   defining property of the algorithm where the library states one (EASY
   may delay non-head jobs by design, so it has none). *)
let schedule_checks inst algo s =
  let order = Algos.Priority.order Algos.Priority.Fifo inst in
  ("Schedule.validate", Schedule.validate inst s = Ok ())
  ::
  (match algo.key with
  | "lsrc" -> [ ("Lsrc.is_greedy", Algos.Lsrc.is_greedy inst s) ]
  | "fcfs" -> [ ("Fcfs.respects_order", Algos.Fcfs.respects_order inst s order) ]
  | "cons" -> [ ("Backfill.no_earlier_job_delayed", Algos.Backfill.no_earlier_job_delayed inst order s) ]
  | _ -> [])

(* --- Exact solves ---------------------------------------------------------

   The exact-solve set is fixed: instances 1..k of the α-restricted family
   (m=24, n=8, α=0.5, pmax=20), seeded by index. Its solve-time tail is
   heavy — the p90 of disjoint 100-instance sets ranges over 68–166 ms — so
   a set drawn from --seed would move the percentile far more than any
   bound can absorb; a fixed set makes the node count exact on every run. *)

let exact_m = 24
let exact_alpha = 0.5

let exact_instance i =
  Resa_gen.Random_inst.alpha_restricted (Prng.create ~seed:i) ~m:exact_m ~n:8 ~alpha:exact_alpha
    ~pmax:20 ()

let sp_lb = Spans.name "lower_bounds.best"
let sp_bnb = Spans.name "bnb.solve"

type solved = { solve_s : float; lb_s : float; optimal : bool }

(* Solve one instance, checking optimality, feasibility, LB ≤ C* ≤ every
   heuristic makespan, and Proposition 3 (LSRC within 2/α of the optimum).
   The heuristic schedules are computed outside the timed calls. *)
let solve_checked ~what inst =
  let out = ref None in
  Common.op what (fun () ->
      let lb, lb_s = Common.time (fun () -> Spans.wrap sp_lb (fun () -> Resa_exact.Lower_bounds.best inst)) in
      let r, solve_s = Common.time (fun () -> Spans.wrap sp_bnb (fun () -> Resa_exact.Bnb.solve inst)) in
      out := Some { solve_s; lb_s; optimal = r.Resa_exact.Bnb.optimal };
      let c = r.Resa_exact.Bnb.makespan in
      let heur = List.map (fun a -> (a.key, Schedule.makespan inst (a.run inst))) algos in
      Common.checks
        ([
           ("Bnb optimal", r.Resa_exact.Bnb.optimal);
           ("Bnb schedule valid", Schedule.validate inst r.Resa_exact.Bnb.schedule = Ok ());
           ("Bnb makespan", Schedule.makespan inst r.Resa_exact.Bnb.schedule = c);
           ("LB <= C*", lb <= c);
           ( "Proposition 3",
             float_of_int (List.assoc "lsrc" heur) <= 2. /. exact_alpha *. float_of_int c );
         ]
        @ List.map (fun (k, h) -> ("C* <= " ^ k, c <= h)) heur));
  !out

(* --- Per-layer metrics of the offline layers ------------------------------ *)

let c_nodes = Prof.counter "bnb.nodes"
let c_area = Prof.counter "bnb.prunes_area"
let c_twin = Prof.counter "bnb.prunes_twin"
let c_prune_fit = Prof.counter "bnb.prunes_fit"

type bnb_counts = { nodes0 : int; area0 : int; twin0 : int; fit0 : int }

let bnb_mark () =
  { nodes0 = Prof.value c_nodes; area0 = Prof.value c_area; twin0 = Prof.value c_twin; fit0 = Prof.value c_prune_fit }

(* Emit the offline per-layer metrics of a traced pass: per-schedule
   Timeline work of each algorithm, LSRC decision instants, and the exact
   solver's work since [mark] over the [solves] it made. *)
let layer_metrics mark (solves : solved list) =
  let per c v = if c.calls = 0 then 0. else float_of_int v /. float_of_int c.calls in
  List.iter
    (fun (k, c) ->
      Common.metric ("timeline.fit_attempts_per_schedule." ^ k) "count" (per c c.fits);
      Common.metric ("timeline.min_on_per_schedule." ^ k) "count" (per c c.min_ons))
    accs;
  let l = List.assoc "lsrc" accs in
  Common.metric "lsrc.decision_instants" "count" (per l l.instants);
  let solve_s = List.fold_left (fun s x -> s +. x.solve_s) 0. solves in
  let nodes = Prof.value c_nodes - mark.nodes0 in
  Common.metric "lower_bounds.best_ms" "ms"
    (if solves = [] then 0. else 1e3 *. Common.median (Array.of_list (List.map (fun x -> x.lb_s) solves)));
  Common.metric "bnb.nodes" "count" (float_of_int nodes);
  Common.metric "bnb.nodes_per_s" "1/s" (if solve_s > 0. then float_of_int nodes /. solve_s else 0.);
  Common.metric "bnb.prunes_area" "count" (float_of_int (Prof.value c_area - mark.area0));
  Common.metric "bnb.prunes_twin" "count" (float_of_int (Prof.value c_twin - mark.twin0));
  Common.metric "bnb.prunes_fit" "count" (float_of_int (Prof.value c_prune_fit - mark.fit0))

(* One round of exact solves over [insts]; with [~scale] each solve's
   seconds are at the reference speed (Common.timed_items). *)
let solve_round ~scale ~what insts =
  let insts = Array.of_list insts in
  Common.timed_items ~scale (Array.length insts) (fun i -> solve_checked ~what insts.(i))
  |> Array.to_list
  |> List.map (fun (r, _, k) -> Option.map (fun x -> { x with solve_s = x.solve_s *. k }) r)

(* The end-to-end solve-time metrics of several rounds over one instance
   list: each instance's median time over the rounds, then the
   percentiles over the instances. A failed solve contributes no time. *)
let bnb_metrics (rounds : solved option list list) =
  let times = Hashtbl.create 128 in
  List.iter
    (List.iteri (fun i -> function
       | Some x -> Hashtbl.replace times i (x.solve_s :: Option.value (Hashtbl.find_opt times i) ~default:[])
       | None -> ()))
    rounds;
  let ms = Array.of_seq (Seq.map (fun l -> 1e3 *. Common.median_of l) (Hashtbl.to_seq_values times)) in
  Common.metric "bnb_solve_ms.p50" "ms" (Common.quantile ms 0.5);
  Common.metric "bnb_solve_ms.p90" "ms" (Common.quantile ms 0.9)
