let to_string inst =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "m %d\n" (Instance.m inst));
  Array.iter
    (fun j -> Buffer.add_string buf (Printf.sprintf "job %d %d\n" (Job.p j) (Job.q j)))
    (Instance.jobs inst);
  Array.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "res %d %d %d\n" (Reservation.start r) (Reservation.p r)
           (Reservation.q r)))
    (Instance.reservations inst);
  Buffer.contents buf

let of_string text =
  let lines = String.split_on_char '\n' text in
  let m = ref None and jobs = ref [] and reservations = ref [] in
  let n_jobs = ref 0 and n_reservations = ref 0 in
  let error = ref None in
  let fail lineno msg = if !error = None then error := Some (Printf.sprintf "line %d: %s" lineno msg) in
  let past_bound what = Printf.sprintf "%s past the bound %d" what Instance.max_time in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' && !error = None then begin
        let tokens = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
        match tokens with
        | [ "m"; v ] -> (
          match int_of_string_opt v with
          | Some v when v >= 1 -> m := Some v
          | _ -> fail lineno "invalid machine count")
        | [ "job"; p; q ] -> (
          match (int_of_string_opt p, int_of_string_opt q) with
          | Some p, Some _ when p > Instance.max_time -> fail lineno (past_bound "job runtime")
          | Some p, Some q when p >= 1 && q >= 1 ->
            jobs := Job.make ~id:!n_jobs ~p ~q :: !jobs;
            incr n_jobs
          | _ -> fail lineno "invalid job")
        | [ "res"; start; p; q ] -> (
          match (int_of_string_opt start, int_of_string_opt p, int_of_string_opt q) with
          (* [p] is checked first, so [max_time - p] cannot overflow. *)
          | Some start, Some p, Some _ when p > Instance.max_time || start > Instance.max_time - p ->
            fail lineno (past_bound "reservation end")
          | Some start, Some p, Some q when start >= 0 && p >= 1 && q >= 1 ->
            reservations := Reservation.make ~id:!n_reservations ~start ~p ~q :: !reservations;
            incr n_reservations
          | _ -> fail lineno "invalid reservation")
        | _ -> fail lineno (Printf.sprintf "unrecognised directive %S" line)
      end)
    lines;
  match !error with
  | Some msg -> Error msg
  | None -> (
    match !m with
    | None -> Error "missing 'm <machines>' line"
    | Some m -> Instance.create ~m ~jobs:(List.rev !jobs) ~reservations:(List.rev !reservations))

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg

let write_file path inst =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_string inst))
