open Resa_core
open Resa_gen

type entry = {
  job_number : int;
  submit : int;
  wait : int;
  run : int;
  alloc_procs : int;
  avg_cpu : int;
  used_mem : int;
  req_procs : int;
  req_time : int;
  req_mem : int;
  status : int;
  user : int;
  group : int;
  app : int;
  queue : int;
  partition : int;
  preceding : int;
  think_time : int;
}

let default =
  {
    job_number = 0;
    submit = 0;
    wait = -1;
    run = -1;
    alloc_procs = -1;
    avg_cpu = -1;
    used_mem = -1;
    req_procs = -1;
    req_time = -1;
    req_mem = -1;
    status = -1;
    user = -1;
    group = -1;
    app = -1;
    queue = -1;
    partition = -1;
    preceding = -1;
    think_time = -1;
  }

let field_names =
  [|
    "job_number"; "submit"; "wait"; "run"; "alloc_procs"; "avg_cpu"; "used_mem"; "req_procs";
    "req_time"; "req_mem"; "status"; "user"; "group"; "app"; "queue"; "partition"; "preceding";
    "think_time";
  |]

let is_blank line = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') line

let parse_line line =
  if is_blank line then Ok None
  else if String.length line > 0 && line.[0] = ';' then Ok None
  else begin
    let tokens =
      (* '\r' joins the separators so CRLF traces parse: otherwise the final
         field of every line would arrive as e.g. "18\r" and fail numeric
         conversion. *)
      String.split_on_char ' '
        (String.map (fun c -> if c = '\t' || c = '\r' then ' ' else c) line)
      |> List.filter (fun s -> s <> "")
    in
    if List.length tokens < 18 then
      Error (Printf.sprintf "expected 18 fields, found %d" (List.length tokens))
    else begin
      let values = Array.make 18 0 in
      let bad = ref None in
      List.iteri
        (fun i tok ->
          if i < 18 && !bad = None then
            match int_of_string_opt tok with
            | Some v -> values.(i) <- v
            | None ->
              (* The archive stores a few fields (e.g. average CPU) as
                 floats; accept them. Durations round {e up}: truncating a
                 0.9-second runtime to 0 would turn a job that occupied the
                 machine into a no-work entry that [carries_work] drops. *)
              (match float_of_string_opt tok with
              | Some f ->
                values.(i) <- (if i = 3 || i = 8 then int_of_float (Float.ceil f) else int_of_float f)
              | None -> bad := Some (Printf.sprintf "field %s: %S is not a number" field_names.(i) tok)))
        tokens;
      match !bad with
      | Some msg -> Error msg
      | None ->
        Ok
          (Some
             {
               job_number = values.(0);
               submit = values.(1);
               wait = values.(2);
               run = values.(3);
               alloc_procs = values.(4);
               avg_cpu = values.(5);
               used_mem = values.(6);
               req_procs = values.(7);
               req_time = values.(8);
               req_mem = values.(9);
               status = values.(10);
               user = values.(11);
               group = values.(12);
               app = values.(13);
               queue = values.(14);
               partition = values.(15);
               preceding = values.(16);
               think_time = values.(17);
             })
    end
  end

let to_line e =
  Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d" e.job_number e.submit
    e.wait e.run e.alloc_procs e.avg_cpu e.used_mem e.req_procs e.req_time e.req_mem e.status
    e.user e.group e.app e.queue e.partition e.preceding e.think_time

let to_string ?(comments = []) entries =
  let buf = Buffer.create 1024 in
  List.iter (fun c -> Buffer.add_string buf ("; " ^ c ^ "\n")) comments;
  List.iter
    (fun e ->
      Buffer.add_string buf (to_line e);
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

let of_workload triples =
  List.mapi
    (fun i (job, submit, start) ->
      {
        default with
        job_number = i + 1;
        submit;
        wait = start - submit;
        run = Job.p job;
        alloc_procs = Job.q job;
        req_procs = Job.q job;
        req_time = Job.p job;
        status = 1;
      })
    triples

let generate ?(overestimate = 1.0) rng ~m ~n ~max_runtime ~mean_gap =
  if overestimate < 1.0 then invalid_arg "Swf.generate: overestimate must be >= 1.0";
  let inst = Random_inst.cluster_workload rng ~m ~n ~max_runtime in
  let arrivals = Arrivals.poisson rng ~n ~mean_gap in
  List.init n (fun i ->
      let j = Instance.job inst i in
      let req_time =
        if overestimate <= 1.0 then Job.p j
        else
          (* Factor uniform in [1, 2*overestimate - 1]: mean = overestimate. *)
          let f = 1.0 +. Prng.float rng ~bound:(2.0 *. (overestimate -. 1.0)) in
          max (Job.p j) (int_of_float (f *. float_of_int (Job.p j)))
      in
      {
        default with
        job_number = i + 1;
        submit = arrivals.(i);
        run = Job.p j;
        req_time;
        req_procs = Job.q j;
        alloc_procs = Job.q j;
        status = 1;
        user = 1 + (i mod 13);
      })
