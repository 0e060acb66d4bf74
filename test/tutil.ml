(* Shared helpers and QCheck generators for the test suites. *)

open Resa_core

let check_feasible name inst sched =
  match Schedule.validate inst sched with
  | Ok () -> ()
  | Error v -> Alcotest.failf "%s: infeasible schedule: %a" name Schedule.pp_violation v

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Instances are generated from a seed so they print and shrink as ints. *)
let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(map abs int)

let small_rigid_of_seed seed =
  (* Reservation-free, m <= 8, n <= 8: within reach of the exact solver. *)
  let rng = Prng.create ~seed in
  let m = Prng.int_incl rng ~lo:1 ~hi:8 in
  let n = Prng.int_incl rng ~lo:1 ~hi:8 in
  let jobs =
    List.init n (fun i ->
        Job.make ~id:i ~p:(Prng.int_incl rng ~lo:1 ~hi:9) ~q:(Prng.int_incl rng ~lo:1 ~hi:m))
  in
  Instance.create_exn ~m ~jobs ~reservations:[]

let small_resa_of_seed seed =
  (* With reservations, still exact-solver sized. *)
  let rng = Prng.create ~seed in
  let m = Prng.int_incl rng ~lo:2 ~hi:8 in
  let n = Prng.int_incl rng ~lo:1 ~hi:6 in
  let jobs =
    List.init n (fun i ->
        Job.make ~id:i ~p:(Prng.int_incl rng ~lo:1 ~hi:8) ~q:(Prng.int_incl rng ~lo:1 ~hi:m))
  in
  let n_res = Prng.int_incl rng ~lo:0 ~hi:3 in
  let reservations = ref [] in
  let u = ref (Profile.constant 0) in
  for i = 0 to n_res - 1 do
    let start = Prng.int rng ~bound:20 in
    let p = Prng.int_incl rng ~lo:1 ~hi:8 in
    let q = Prng.int_incl rng ~lo:1 ~hi:m in
    let u' = Profile.change !u ~lo:start ~hi:(start + p) ~delta:q in
    if Profile.max_value u' <= m - 1 then begin
      (* Keep one processor always free so every job can eventually run. *)
      u := u';
      reservations := Reservation.make ~id:i ~start ~p ~q :: !reservations
    end
  done;
  Instance.create_exn ~m ~jobs ~reservations:!reservations

let medium_alpha_of_seed ~alpha seed =
  let rng = Prng.create ~seed in
  let m = 4 * Prng.int_incl rng ~lo:2 ~hi:8 in
  let n = Prng.int_incl rng ~lo:5 ~hi:40 in
  Resa_gen.Random_inst.alpha_restricted rng ~m ~n ~alpha ~pmax:10 ()

let profile_of_seed seed =
  (* Arbitrary non-negative step function. *)
  let rng = Prng.create ~seed in
  let n_events = Prng.int_incl rng ~lo:0 ~hi:12 in
  let deltas =
    List.init n_events (fun _ ->
        (Prng.int rng ~bound:30, Prng.int_incl rng ~lo:(-3) ~hi:3))
  in
  let base = Prng.int_incl rng ~lo:0 ~hi:10 in
  let p = Profile.of_events ~base deltas in
  (* Shift up so it is capacity-like (non-negative). *)
  let lift = max 0 (-Profile.min_value p) in
  Profile.add_const p lift

(* A simulator arrival whose walltime estimate is exact ([estimate = p]). *)
let exact job ~submit = Resa_sim.Simulator.{ job; submit; estimate = Job.p job }
