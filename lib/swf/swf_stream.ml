open Resa_core

type arrival = { job : Job.t; submit : int; estimate : int; job_number : int }

type t = unit -> arrival option

exception Parse_error of { line : int; msg : string }

let () =
  Printexc.register_printer (function
    | Parse_error { line; msg } -> Some (Printf.sprintf "Swf_stream.Parse_error(line %d: %s)" line msg)
    | _ -> None)

let fail line fmt = Printf.ksprintf (fun msg -> raise (Parse_error { line; msg })) fmt

(* Entries with neither a positive runtime nor a positive request carry no
   work at all (jobs cancelled before starting, archive status 0/5 stubs);
   converting them would fabricate phantom 1-second jobs. Failed jobs
   (status 0) occupied the machine, so they stay unless asked otherwise. *)
let keep ~keep_failed (e : Swf.entry) = (e.run > 0 || e.req_time > 0) && (keep_failed || e.status <> 0)

(* The one convert-and-check kernel behind every source of entries. A kept
   entry becomes an arrival: width [req_procs] (falling back to
   [alloc_procs]) clamped to [1, m], runtime at least 1, walltime at least
   the runtime, submit clamped to [>= 0], ids renumbered consecutively over
   kept entries. It must also be replayable: submit times non-decreasing,
   times within [Instance.max_time]; otherwise [Parse_error] at [line]. *)
let converter ~keep_failed ~m =
  let next_id = ref 0 in
  let last_submit = ref 0 in
  fun ~line (e : Swf.entry) ->
    if not (keep ~keep_failed e) then None
    else begin
      let q0 = if e.req_procs > 0 then e.req_procs else e.alloc_procs in
      let p = max 1 e.run in
      let submit = max 0 e.submit and estimate = max p e.req_time in
      if max submit estimate > Instance.max_time then
        fail line "submit time or walltime past the bound %d" Instance.max_time;
      if submit < !last_submit then
        fail line "submit time %d before the previous job's %d" submit !last_submit;
      last_submit := submit;
      let id = !next_id in
      incr next_id;
      Some { job = Job.make ~id ~p ~q:(max 1 (min m q0)); submit; estimate; job_number = e.job_number }
    end

let of_lines ?(keep_failed = true) ~m next_line =
  let convert = converter ~keep_failed ~m in
  let lineno = ref 0 in
  let rec next () =
    match next_line () with
    | None -> None
    | Some line -> (
      incr lineno;
      match Swf.parse_line line with
      | Error msg -> fail !lineno "%s" msg
      | Ok None -> next ()
      | Ok (Some e) -> ( match convert ~line:!lineno e with None -> next () | a -> a))
  in
  next

let of_channel ?keep_failed ~m ic = of_lines ?keep_failed ~m (fun () -> In_channel.input_line ic)

let of_string ?keep_failed ~m text =
  let lines = ref (String.split_on_char '\n' text) in
  of_lines ?keep_failed ~m (fun () ->
      match !lines with
      | [] -> None
      | l :: rest ->
        lines := rest;
        Some l)

let with_file ?keep_failed ~m path f =
  In_channel.with_open_text path (fun ic -> f (of_channel ?keep_failed ~m ic))

let of_entries ?(keep_failed = true) ~m entries =
  let convert = converter ~keep_failed ~m in
  let remaining = ref entries and pos = ref 0 in
  let rec next () =
    match !remaining with
    | [] -> None
    | e :: rest -> (
      remaining := rest;
      incr pos;
      match convert ~line:!pos e with None -> next () | a -> a)
  in
  next

let synthetic ?(overestimate = 1.0) rng ~m ~n ~max_runtime ~mean_gap =
  if overestimate < 1.0 then invalid_arg "Swf_stream.synthetic: overestimate must be >= 1.0";
  if n < 0 then invalid_arg "Swf_stream.synthetic: negative n";
  let max_exp =
    let rec go e = if 1 lsl (e + 1) > m then e else go (e + 1) in
    go 0
  in
  let i = ref 0 in
  let clock = ref 0.0 in
  fun () ->
    if !i >= n then None
    else begin
      let id = !i in
      incr i;
      (* All randomness for job [id] is drawn here, in one fixed order —
         width, runtime, gap, walltime factor — so the stream is a pure
         function of (seed, id prefix) and never materialises the trace.
         The marginals match [Swf.generate] (power-of-two-biased widths,
         log-uniform runtimes, exponential gaps) but the interleaving
         differs, so the two are distinct deterministic families: replays
         cite one or the other, never mix. *)
      let q0 = 1 lsl Prng.int_incl rng ~lo:0 ~hi:max_exp in
      let q =
        if Prng.int rng ~bound:5 = 0 then max 1 (min m (q0 + Prng.int_incl rng ~lo:(-1) ~hi:1))
        else q0
      in
      let p = Prng.log_uniform_int rng ~lo:1 ~hi:max_runtime in
      if id > 0 then clock := !clock +. Prng.exponential rng ~mean:mean_gap;
      let submit = int_of_float !clock in
      let estimate =
        if overestimate <= 1.0 then p
        else begin
          (* Factor uniform in [1, 2*overestimate - 1]: mean = overestimate. *)
          let f = 1.0 +. Prng.float rng ~bound:(2.0 *. (overestimate -. 1.0)) in
          max p (int_of_float (f *. float_of_int p))
        end
      in
      Some { job = Job.make ~id ~p ~q; submit; estimate; job_number = id + 1 }
    end

let iter src f =
  let rec go () =
    match src () with
    | None -> ()
    | Some a ->
      f a;
      go ()
  in
  go ()

let to_list src =
  let acc = ref [] in
  iter src (fun a -> acc := a :: !acc);
  List.rev !acc
