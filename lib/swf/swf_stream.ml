open Resa_core

type arrival = { job : Job.t; submit : int; estimate : int; job_number : int }

type t = unit -> arrival option

exception Parse_error of { line : int; msg : string }

let () =
  Printexc.register_printer (function
    | Parse_error { line; msg } -> Some (Printf.sprintf "Swf_stream.Parse_error(line %d: %s)" line msg)
    | _ -> None)

(* 2^32 seconds is 136 years, beyond any archive trace, and small enough
   that no sum of starts, waits and runtimes the engine forms can overflow. *)
let max_time = 1 lsl 32

(* Shared kernel with the batch converters: same keep rule, same clamping,
   ids renumbered consecutively over kept entries. A kept entry must also
   be replayable: submit times non-decreasing, times within [max_time]. *)
let of_lines ?(keep_failed = true) ~m next_line =
  let lineno = ref 0 in
  let next_id = ref 0 in
  let last_submit = ref 0 in
  let fail msg = raise (Parse_error { line = !lineno; msg }) in
  let rec next () =
    match next_line () with
    | None -> None
    | Some line ->
      incr lineno;
      (match Swf.parse_line line with
      | Error msg -> fail msg
      | Ok None -> next ()
      | Ok (Some e) ->
        if Swf.keep ~keep_failed e then begin
          let id = !next_id in
          let job, submit, estimate = Swf.estimated_of_entry ~m ~id e in
          if max submit estimate > max_time then
            fail (Printf.sprintf "submit time or walltime past the bound %d" max_time);
          if submit < !last_submit then
            fail (Printf.sprintf "submit time %d before the previous job's %d" submit !last_submit);
          last_submit := submit;
          incr next_id;
          Some { job; submit; estimate; job_number = e.job_number }
        end
        else next ())
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
  let remaining = ref entries in
  let next_id = ref 0 in
  let rec next () =
    match !remaining with
    | [] -> None
    | e :: rest ->
      remaining := rest;
      if Swf.keep ~keep_failed e then begin
        let id = !next_id in
        incr next_id;
        let job, submit, estimate = Swf.estimated_of_entry ~m ~id e in
        Some { job; submit; estimate; job_number = e.job_number }
      end
      else next ()
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
