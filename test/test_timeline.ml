(* Timeline vs Profile: the mutable segment tree must be observationally
   identical to the persistent profile it replaces on every operation the
   schedulers perform — enforced on random op sequences and on whole
   scheduler runs against the retained Profile-backed reference
   implementations. *)

open Resa_core

let steps = Alcotest.(list (pair int int))

(* --- unit tests --------------------------------------------------------- *)

let test_constant () =
  let tl = Timeline.create 7 in
  Alcotest.(check int) "value at 0" 7 (Timeline.value_at tl 0);
  Alcotest.(check int) "value far out" 7 (Timeline.value_at tl 123_456);
  Alcotest.(check int) "last breakpoint" 0 (Timeline.last_breakpoint tl);
  Alcotest.(check (option int)) "no breakpoint" None (Timeline.next_breakpoint_after tl 3);
  Alcotest.check steps "to_profile" [ (0, 7) ] (Profile.to_steps (Timeline.to_profile tl))

let test_roundtrip () =
  let p = Profile.of_steps [ (0, 5); (3, 1); (6, 8); (11, 2) ] in
  let tl = Timeline.of_profile p in
  Alcotest.(check bool) "roundtrip" true (Profile.equal p (Timeline.to_profile tl));
  let tl = Timeline.of_profile ~horizon:1024 p in
  Alcotest.(check bool) "with horizon" true (Profile.equal p (Timeline.to_profile tl))

let test_change_reserve () =
  let tl = Timeline.create 4 in
  Timeline.change tl ~lo:2 ~hi:5 ~delta:(-3);
  Alcotest.(check int) "inside" 1 (Timeline.value_at tl 3);
  Alcotest.(check int) "outside" 4 (Timeline.value_at tl 5);
  Timeline.reserve tl ~start:0 ~dur:2 ~need:4;
  Alcotest.(check int) "reserved" 0 (Timeline.value_at tl 1);
  Alcotest.check_raises "insufficient"
    (Invalid_argument "Timeline.reserve: insufficient capacity in window") (fun () ->
      Timeline.reserve tl ~start:1 ~dur:3 ~need:2);
  (* Inverse range-add undoes a reservation exactly. *)
  Timeline.change tl ~lo:0 ~hi:2 ~delta:4;
  Timeline.change tl ~lo:2 ~hi:5 ~delta:3;
  Alcotest.(check bool) "back to constant" true
    (Profile.equal (Profile.constant 4) (Timeline.to_profile tl))

let test_empty_window () =
  let tl = Timeline.create 3 in
  Alcotest.(check int) "min identity" max_int (Timeline.min_on tl ~lo:5 ~hi:5);
  Alcotest.(check int) "max identity" min_int (Timeline.max_on tl ~lo:5 ~hi:5);
  Alcotest.check_raises "bad window" (Invalid_argument "Timeline: bad window") (fun () ->
      ignore (Timeline.min_on tl ~lo:6 ~hi:5))

let test_earliest_fit () =
  let p = Profile.of_steps [ (0, 2); (4, 0); (6, 5) ] in
  let tl = Timeline.of_profile p in
  Alcotest.(check (option int)) "fits at once" (Some 0)
    (Timeline.earliest_fit tl ~from:0 ~dur:3 ~need:2);
  Alcotest.(check (option int)) "must jump the hole" (Some 6)
    (Timeline.earliest_fit tl ~from:0 ~dur:5 ~need:2);
  Alcotest.(check (option int)) "need too high" None
    (Timeline.earliest_fit tl ~from:0 ~dur:1 ~need:6);
  Alcotest.(check (option int)) "far from" (Some 50)
    (Timeline.earliest_fit tl ~from:50 ~dur:4 ~need:5)

let test_forward_view () =
  let p = Profile.of_steps [ (0, 9); (2, 1); (5, 6) ] in
  let tl = Timeline.of_profile p in
  let fwd = Timeline.to_profile ~from:3 tl in
  Alcotest.check steps "past collapsed" [ (0, 1); (5, 6) ] (Profile.to_steps fwd)

(* --- speculation: checkpoint / rollback / commit ------------------------ *)

let test_checkpoint_rollback () =
  let tl = Timeline.of_profile (Profile.of_steps [ (0, 6); (4, 2); (9, 6) ]) in
  let before = Timeline.to_profile tl in
  let m = Timeline.checkpoint tl in
  Timeline.reserve tl ~start:0 ~dur:3 ~need:4;
  Timeline.change tl ~lo:10 ~hi:20 ~delta:(-5);
  (* Queries see the speculative state... *)
  Alcotest.(check int) "speculative value" 2 (Timeline.value_at tl 1);
  Alcotest.(check int) "speculative far value" 1 (Timeline.value_at tl 12);
  Timeline.rollback tl m;
  (* ...and rollback is exact. *)
  Alcotest.(check bool) "identity after rollback" true
    (Profile.equal before (Timeline.to_profile tl))

let test_rollback_after_growth () =
  (* Speculative writes far past the current horizon force root doubling;
     rollback must restore values even though the tree keeps its new size. *)
  let tl = Timeline.create 5 in
  Timeline.change tl ~lo:0 ~hi:4 ~delta:(-1);
  let m = Timeline.checkpoint tl in
  Timeline.change tl ~lo:100_000 ~hi:200_000 ~delta:(-3);
  Alcotest.(check int) "speculative far write" 2 (Timeline.value_at tl 150_000);
  Timeline.rollback tl m;
  Alcotest.(check int) "tail restored" 5 (Timeline.value_at tl 150_000);
  Alcotest.(check int) "near values intact" 4 (Timeline.value_at tl 2)

let test_nested_speculation () =
  let tl = Timeline.create 8 in
  let outer = Timeline.checkpoint tl in
  Timeline.change tl ~lo:0 ~hi:10 ~delta:(-1);
  let inner = Timeline.checkpoint tl in
  Timeline.change tl ~lo:0 ~hi:10 ~delta:(-2);
  Timeline.rollback tl inner;
  (* Inner rollback keeps the outer trial. *)
  Alcotest.(check int) "outer trial survives" 7 (Timeline.value_at tl 5);
  let inner2 = Timeline.checkpoint tl in
  Timeline.change tl ~lo:0 ~hi:10 ~delta:(-4);
  Timeline.commit tl inner2;
  (* Commit folds into the enclosing scope... *)
  Alcotest.(check int) "committed trial kept" 3 (Timeline.value_at tl 5);
  Timeline.rollback tl outer;
  (* ...so the outer rollback still retracts it. *)
  Alcotest.(check int) "outer rollback undoes all" 8 (Timeline.value_at tl 5)

let test_stale_marks_rejected () =
  let tl = Timeline.create 4 in
  let m = Timeline.checkpoint tl in
  Timeline.change tl ~lo:0 ~hi:5 ~delta:(-1);
  Timeline.rollback tl m;
  Alcotest.check_raises "mark reused after rollback"
    (Invalid_argument "Timeline.commit: stale or non-LIFO mark") (fun () ->
      Timeline.commit tl m);
  Alcotest.check_raises "double rollback"
    (Invalid_argument "Timeline.rollback: stale or non-LIFO mark") (fun () ->
      Timeline.rollback tl m)

(* Randomized: arbitrary mutations under arbitrarily nested speculation
   (inner scopes randomly rolled back or committed) — rolling back the
   outermost checkpoint must be a perfect identity w.r.t. the rebuilt
   profile. *)
let speculation_identity seed =
  let rng = Prng.create ~seed in
  let tl = Timeline.of_profile (Tutil.profile_of_seed seed) in
  let reference = Timeline.to_profile tl in
  let mutate () =
    if Prng.int rng ~bound:2 = 0 then begin
      let lo = Prng.int rng ~bound:60 and len = Prng.int_incl rng ~lo:1 ~hi:25 in
      Timeline.change tl ~lo ~hi:(lo + len) ~delta:(Prng.int_incl rng ~lo:(-5) ~hi:5)
    end
    else begin
      let start = Prng.int rng ~bound:50 and dur = Prng.int_incl rng ~lo:1 ~hi:12 in
      let mn = Timeline.min_on tl ~lo:start ~hi:(start + dur) in
      if mn >= 1 then Timeline.reserve tl ~start ~dur ~need:(Prng.int_incl rng ~lo:1 ~hi:mn)
    end
  in
  let rec churn depth =
    for _ = 1 to 6 do
      match Prng.int rng ~bound:3 with
      | 1 when depth < 3 ->
        let m = Timeline.checkpoint tl in
        churn (depth + 1);
        Timeline.rollback tl m
      | 2 when depth < 3 ->
        let m = Timeline.checkpoint tl in
        churn (depth + 1);
        Timeline.commit tl m
      | _ -> mutate ()
    done
  in
  let m0 = Timeline.checkpoint tl in
  churn 0;
  Timeline.rollback tl m0;
  Profile.equal reference (Timeline.to_profile tl)

(* --- randomized differential: operation sequences ----------------------- *)

let ops_agree seed =
  let rng = Prng.create ~seed in
  let p = ref (Tutil.profile_of_seed seed) in
  let tl = Timeline.of_profile !p in
  let ok = ref true in
  let check name b = if not b then (Printf.eprintf "mismatch: %s (seed %d)\n" name seed; ok := false) in
  for _ = 1 to 40 do
    match Prng.int rng ~bound:10 with
    | 0 ->
      let lo = Prng.int rng ~bound:50 and len = Prng.int_incl rng ~lo:1 ~hi:20 in
      let delta = Prng.int_incl rng ~lo:(-4) ~hi:4 in
      p := Profile.change !p ~lo ~hi:(lo + len) ~delta;
      Timeline.change tl ~lo ~hi:(lo + len) ~delta
    | 1 ->
      let start = Prng.int rng ~bound:40 and dur = Prng.int_incl rng ~lo:1 ~hi:10 in
      let mn = Profile.min_on !p ~lo:start ~hi:(start + dur) in
      check "min before reserve" (mn = Timeline.min_on tl ~lo:start ~hi:(start + dur));
      if mn >= 1 then begin
        let need = Prng.int_incl rng ~lo:1 ~hi:mn in
        p := Profile.reserve !p ~start ~dur ~need;
        Timeline.reserve tl ~start ~dur ~need
      end
    | 2 ->
      let x = Prng.int rng ~bound:100 in
      check "value_at" (Profile.value_at !p x = Timeline.value_at tl x)
    | 3 ->
      let lo = Prng.int rng ~bound:60 in
      let hi = lo + Prng.int rng ~bound:25 in
      if lo = hi then begin
        check "empty min" (Timeline.min_on tl ~lo ~hi = max_int);
        check "empty max" (Timeline.max_on tl ~lo ~hi = min_int)
      end
      else begin
        check "min_on" (Profile.min_on !p ~lo ~hi = Timeline.min_on tl ~lo ~hi);
        check "max_on" (Profile.max_on !p ~lo ~hi = Timeline.max_on tl ~lo ~hi)
      end
    | 4 ->
      let from = Prng.int rng ~bound:60 and dur = Prng.int_incl rng ~lo:1 ~hi:10 in
      let need = Prng.int_incl rng ~lo:(-1) ~hi:12 in
      check "earliest_fit"
        (Profile.earliest_fit !p ~from ~dur ~need = Timeline.earliest_fit tl ~from ~dur ~need)
    | 5 ->
      let x = Prng.int rng ~bound:80 in
      check "next_breakpoint_after"
        (Profile.next_breakpoint_after !p x = Timeline.next_breakpoint_after tl x)
    | 6 -> check "last_breakpoint" (Profile.last_breakpoint !p = Timeline.last_breakpoint tl)
    | 7 ->
      check "final_value" (Profile.final_value !p = Timeline.final_value tl);
      (* Chunks must tile [from, ∞) in order, carry the pointwise values of
         the profile, and end with the tail (hi = None). *)
      let from = Prng.int rng ~bound:60 in
      let cursor = ref from and saw_tail = ref false in
      Timeline.iter_chunks_from tl ~from ~f:(fun ~lo ~hi ~v ->
          check "chunk contiguous" (lo = !cursor);
          check "chunk value" (Profile.value_at !p lo = v);
          (match hi with
          | Some hi ->
            check "chunk non-empty" (hi > lo);
            check "chunk constant" (Profile.min_on !p ~lo ~hi = v && Profile.max_on !p ~lo ~hi = v);
            cursor := hi
          | None ->
            check "tail value" (Profile.final_value !p = v);
            saw_tail := true);
          true);
      check "tail visited" !saw_tail
    | 8 ->
      if Profile.final_value !p > 0 then begin
        let from = Prng.int rng ~bound:60 in
        let area = Prng.int_incl rng ~lo:1 ~hi:600 in
        let expect = Resa_exact.Lower_bounds.min_time_with_area !p ~from ~area in
        check "first_reaching_area (uncapped)"
          (Timeline.first_reaching_area tl ~from ~area ~cap:max_int = expect);
        let cap = Prng.int_incl rng ~lo:1 ~hi:120 in
        check "first_reaching_area (capped)"
          (Timeline.first_reaching_area tl ~from ~area ~cap = min cap expect)
      end
    | _ ->
      let from = Prng.int rng ~bound:50 in
      let fwd = Timeline.to_profile ~from tl in
      let expect x = if x < from then Profile.value_at !p from else Profile.value_at !p x in
      let agree = ref true in
      for x = 0 to 70 do
        if Profile.value_at fwd x <> expect x then agree := false
      done;
      check "forward view" !agree
  done;
  !ok && Profile.equal !p (Timeline.to_profile tl)

(* --- randomized differential: whole scheduler runs ---------------------- *)

let resa_instance_of_seed seed =
  (* Sized so the O(n·k) reference oracles stay fast; always with a shot at
     a non-trivial reservation set. *)
  let rng = Prng.create ~seed in
  let m = Prng.int_incl rng ~lo:2 ~hi:16 in
  let n = Prng.int_incl rng ~lo:1 ~hi:40 in
  let jobs =
    List.init n (fun i ->
        Job.make ~id:i ~p:(Prng.int_incl rng ~lo:1 ~hi:15) ~q:(Prng.int_incl rng ~lo:1 ~hi:m))
  in
  let n_res = Prng.int_incl rng ~lo:0 ~hi:6 in
  let reservations = ref [] in
  let u = ref (Profile.constant 0) in
  for i = 0 to n_res - 1 do
    let start = Prng.int rng ~bound:40 in
    let p = Prng.int_incl rng ~lo:1 ~hi:12 in
    let q = Prng.int_incl rng ~lo:1 ~hi:m in
    let u' = Profile.change !u ~lo:start ~hi:(start + p) ~delta:q in
    if Profile.max_value u' <= m - 1 then begin
      (* Keep one processor always free so every job can eventually run. *)
      u := u';
      reservations := Reservation.make ~id:i ~start ~p ~q :: !reservations
    end
  done;
  Instance.create_exn ~m ~jobs ~reservations:!reservations

(* --- history garbage collection ----------------------------------------- *)

let test_gc_collapses_past () =
  let tl = Timeline.of_profile (Profile.of_steps [ (0, 9); (2, 1); (5, 6); (40, 3) ]) in
  Timeline.reserve tl ~start:50 ~dur:10 ~need:2;
  (* Pile mutation history into the dead past so there is something to free
     (queries are read-only and materialise nothing, so only mutations
     grow the tree). Net delta zero: values are untouched. *)
  for i = 0 to 39 do
    Timeline.change tl ~lo:i ~hi:(i + 1) ~delta:1;
    Timeline.change tl ~lo:i ~hi:(i + 1) ~delta:(-1)
  done;
  let future_before = Timeline.to_profile ~from:40 tl in
  let nodes_before = Timeline.node_count tl in
  Timeline.gc tl ~upto:40;
  (* Exact on [upto, ∞): the full rebuilt profile IS the collapsed view. *)
  Alcotest.(check bool) "future preserved" true
    (Profile.equal future_before (Timeline.to_profile tl));
  Alcotest.(check int) "past is value_at upto" 3 (Timeline.value_at tl 0);
  Alcotest.(check bool) "history freed" true (Timeline.node_count tl < nodes_before);
  (* The compacted timeline keeps working: mutations and queries as usual. *)
  Timeline.reserve tl ~start:41 ~dur:4 ~need:1;
  Alcotest.(check int) "post-gc reserve" 2 (Timeline.value_at tl 42);
  Alcotest.(check (option int)) "post-gc earliest_fit" (Some 45)
    (Timeline.earliest_fit tl ~from:41 ~dur:5 ~need:3)

let test_gc_rejects () =
  let tl = Timeline.create 4 in
  Alcotest.check_raises "negative upto" (Invalid_argument "Timeline.gc: negative upto") (fun () ->
      Timeline.gc tl ~upto:(-1));
  let m = Timeline.checkpoint tl in
  Alcotest.check_raises "outstanding checkpoint"
    (Invalid_argument "Timeline.gc: checkpoint outstanding") (fun () -> Timeline.gc tl ~upto:3);
  Timeline.rollback tl m;
  Timeline.gc tl ~upto:3

(* [advance]'s two conditions, each on its own. The floor is 16384 (nodes
   and dead instants alike). *)
let test_advance_prefix () =
  let tl = Timeline.create 8 in
  Timeline.change tl ~lo:0 ~hi:100_000 ~delta:(-2);
  Alcotest.(check bool) "prefix at the floor" false (Timeline.advance tl ~now:16384);
  Alcotest.(check bool) "prefix shorter than the live span" false (Timeline.advance tl ~now:40_000);
  Alcotest.(check int) "origin unmoved" 0 (Timeline.origin tl);
  Alcotest.(check bool) "prefix longer than the live span" true (Timeline.advance tl ~now:60_000);
  Alcotest.(check int) "rebased to now" 60_000 (Timeline.origin tl);
  Alcotest.(check int) "future intact" 6 (Timeline.value_at tl 99_999);
  Alcotest.(check bool) "short prefix again" false (Timeline.advance tl ~now:70_000);
  Alcotest.(check bool) "nothing live" true (Timeline.advance tl ~now:(100_000 + 16_385))

let test_advance_nodes () =
  let tl = Timeline.create 100 in
  let k = ref 0 in
  (* Unit windows at distinct future instants: every one adds nodes, and
     none of them ever becomes dead, so only the node rule can fire. *)
  let add () =
    Timeline.change tl ~lo:(3 * !k) ~hi:((3 * !k) + 1) ~delta:(-1);
    incr k
  in
  while Timeline.node_count tl <= 16384 do
    Alcotest.(check bool) "below the floor" false (Timeline.advance tl ~now:0);
    add ()
  done;
  Alcotest.(check bool) "over the floor, never compacted" true (Timeline.advance tl ~now:0);
  let live = Timeline.node_count tl in
  let bound = max 16384 (2 * live) in
  while Timeline.node_count tl <= bound do
    Alcotest.(check bool) "at most twice the live size" false (Timeline.advance tl ~now:0);
    add ()
  done;
  Alcotest.(check bool) "doubled since the last gc" true (Timeline.advance tl ~now:0);
  Alcotest.(check int) "every window kept" 99 (Timeline.value_at tl (3 * (!k - 1)))

(* Randomized: after arbitrary mutations, gc at a random instant must agree
   with the Profile collapse on the whole line and be invisible to every
   future-window query. *)
let gc_is_collapse seed =
  let rng = Prng.create ~seed in
  let tl = Timeline.of_profile (Tutil.profile_of_seed seed) in
  for _ = 1 to 20 do
    let lo = Prng.int rng ~bound:60 and len = Prng.int_incl rng ~lo:1 ~hi:25 in
    Timeline.change tl ~lo ~hi:(lo + len) ~delta:(Prng.int_incl rng ~lo:(-5) ~hi:5)
  done;
  let upto = Prng.int rng ~bound:100 in
  let collapsed = Timeline.to_profile ~from:upto tl in
  Timeline.gc tl ~upto;
  let ok = ref (Profile.equal collapsed (Timeline.to_profile tl)) in
  for _ = 1 to 10 do
    let lo = upto + Prng.int rng ~bound:40 in
    let hi = lo + Prng.int_incl rng ~lo:1 ~hi:15 in
    if Profile.min_on collapsed ~lo ~hi <> Timeline.min_on tl ~lo ~hi then ok := false
  done;
  !ok

let starts inst sched = List.init (Instance.n_jobs inst) (Schedule.start sched)

let same_schedule name fast reference seed =
  let inst = resa_instance_of_seed seed in
  let order = Resa_algos.Priority.order Resa_algos.Priority.Fifo inst in
  let a = starts inst (fast inst order) in
  let b = starts inst (reference inst order) in
  if a <> b then Printf.eprintf "%s diverges on seed %d\n" name seed;
  a = b

let suite =
  [
    Alcotest.test_case "constant timeline" `Quick test_constant;
    Alcotest.test_case "profile roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "change and reserve" `Quick test_change_reserve;
    Alcotest.test_case "empty windows" `Quick test_empty_window;
    Alcotest.test_case "earliest fit" `Quick test_earliest_fit;
    Alcotest.test_case "forward view" `Quick test_forward_view;
    Alcotest.test_case "checkpoint/rollback identity" `Quick test_checkpoint_rollback;
    Alcotest.test_case "rollback across tree growth" `Quick test_rollback_after_growth;
    Alcotest.test_case "nested speculation" `Quick test_nested_speculation;
    Alcotest.test_case "stale marks rejected" `Quick test_stale_marks_rejected;
    Alcotest.test_case "gc collapses history, preserves the future" `Quick test_gc_collapses_past;
    Alcotest.test_case "gc precondition checks" `Quick test_gc_rejects;
    Alcotest.test_case "advance: dead prefix vs live span" `Quick test_advance_prefix;
    Alcotest.test_case "advance: node count vs twice the live size" `Quick test_advance_nodes;
    Tutil.qcheck ~count:500 "gc = to_profile ~from collapse" Tutil.seed_arb gc_is_collapse;
    Tutil.qcheck ~count:500 "nested speculation rolls back to identity" Tutil.seed_arb
      speculation_identity;
    Tutil.qcheck ~count:1000 "random op sequences match Profile" Tutil.seed_arb ops_agree;
    Tutil.qcheck ~count:300 "LSRC = Profile-backed LSRC" Tutil.seed_arb
      (same_schedule "lsrc" Resa_algos.Lsrc.run_order Resa_algos.Lsrc.run_order_reference);
    Tutil.qcheck ~count:300 "FCFS = Profile-backed FCFS" Tutil.seed_arb
      (same_schedule "fcfs" Resa_algos.Fcfs.run_order Resa_algos.Fcfs.run_order_reference);
    Tutil.qcheck ~count:300 "conservative = Profile-backed conservative" Tutil.seed_arb
      (same_schedule "conservative" Resa_algos.Backfill.conservative_order
         Resa_algos.Backfill.conservative_order_reference);
    Tutil.qcheck ~count:300 "EASY = Profile-backed EASY" Tutil.seed_arb
      (same_schedule "easy" Resa_algos.Backfill.easy_order
         Resa_algos.Backfill.easy_order_reference);
  ]
