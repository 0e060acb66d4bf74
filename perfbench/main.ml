(* perfbench — the repository's benchmark. See perfbench/README.md.

     perfbench/run.sh --workload <stable|overload|reservations|campaign>
                      --seed <n> --seconds <s> --trace <0|1>

   The last line of standard output is one JSON object: whether every
   operation's output checked out, operations attempted and failed, and the
   metrics — end-to-end ones with --trace 0, per-layer ones with --trace 1.
   With --record-golden the run prints the digests of the default seed's
   schedules in the format of perfbench/golden.txt instead. *)

(* The replay workloads; README.md says why each was chosen and sized as
   it is. The fourth workload, campaign, is offline (Campaign). *)
let workloads =
  let base =
    Replay.
      {
        name = "";
        default_seed = 0;
        streams = 1;
        n = 0;
        mean_gap = 150.;
        load = None;
        qmax = 128;
        calendar = false;
        pass_s = 1.;
        reps = [];
      }
  in
  [
    { base with name = "stable"; default_seed = 4242; n = 20_000; pass_s = 1.5 };
    {
      base with
      name = "overload";
      default_seed = 60;
      streams = 12;
      n = 2_000;
      mean_gap = 60.;
      load = Some 1.5;
      pass_s = 6.4;
      reps = [ ("fcfs", 4); ("cons", 2) ];
    };
    { base with name = "reservations"; default_seed = 75; streams = 4; n = 5_000; qmax = 96; calendar = true; pass_s = 14.4 };
  ]

let usage () =
  prerr_endline
    "usage: perfbench/run.sh --workload <stable|overload|reservations|campaign> --seed <n> --seconds <s> --trace <0|1> [--record-golden]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: s :: rest ->
      seed := int_of_string_opt s;
      if !seed = None then usage ();
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some x when x > 0. -> seconds := x | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      parse rest
    | "--record-golden" :: rest ->
      Common.recording := true;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* One process, one domain: the executor pool runs inline. *)
  Resa_par.set_domains 1;
  let default_seed =
    match List.find_opt (fun (s : Replay.spec) -> s.name = !workload) workloads with
    | Some s -> s.default_seed
    | None -> if !workload = "campaign" then Campaign.default_seed else usage ()
  in
  let seed = Option.value !seed ~default:default_seed in
  let seed = if !Common.recording then default_seed else seed in
  (match (List.find_opt (fun (s : Replay.spec) -> s.name = !workload) workloads, !trace) with
  | Some spec, false -> Replay.run spec ~seed ~seconds:!seconds
  | Some spec, true -> Replay.run_traced spec ~seed ~seconds:!seconds
  | None, false -> Campaign.run ~seed ~seconds:!seconds
  | None, true -> Campaign.run_traced ~seed ~seconds:!seconds);
  if !Common.recording then List.iter print_endline (List.sort compare !Common.recorded)
  else begin
    if !trace then
      List.iter
        (fun (n, v, u) -> Printf.printf "%-45s %16.6g %s\n" n v u)
        (List.sort compare !Common.metrics);
    Common.print_result ()
  end
