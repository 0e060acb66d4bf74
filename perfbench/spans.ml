(* Span recorder for the traced run.

   Spans are recorded from the benchmark's side of each layer boundary —
   around the calls the harness makes into the program, never inside it.
   Storage is four flat growable int arrays (name id, start, stop, parent
   index), so recording a span allocates nothing in the steady state: the
   harness times ~2 µs decide calls, and a record per span would distort
   them. Times come from CLOCK_MONOTONIC through bechamel's stub, in
   nanoseconds. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let enabled = ref false

(* Interned span names. *)
let names : (string, int) Hashtbl.t = Hashtbl.create 16
let name_of_id = ref [||]

let name s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length names in
    Hashtbl.add names s i;
    name_of_id := Array.append !name_of_id [| s |];
    i

let cap = ref 0
let sname = ref [||]
let sstart = ref [||]
let sstop = ref [||]
let sparent = ref [||]
let len = ref 0

(* Open spans, innermost last. *)
let stack = Array.make 64 (-1)
let depth = ref 0

let grow () =
  let c = max 4096 (2 * !cap) in
  let g a = Array.append !a (Array.make (c - !cap) 0) in
  sname := g sname;
  sstart := g sstart;
  sstop := g sstop;
  sparent := g sparent;
  cap := c

let reset () =
  len := 0;
  depth := 0

let enter id =
  if not !enabled then -1
  else begin
    if !len = !cap then grow ();
    let i = !len in
    len := i + 1;
    !sname.(i) <- id;
    !sparent.(i) <- (if !depth = 0 then -1 else stack.(!depth - 1));
    stack.(!depth) <- i;
    incr depth;
    !sstart.(i) <- now_ns ();
    i
  end

let leave i =
  if i >= 0 then begin
    !sstop.(i) <- now_ns ();
    decr depth
  end

let wrap id f =
  let s = enter id in
  match f () with
  | v ->
    leave s;
    v
  | exception e ->
    leave s;
    raise e

let span_name i = !name_of_id.(!sname.(i))
let dur_ns i = !sstop.(i) - !sstart.(i)

(* Per-name totals: calls, total and self nanoseconds (a span's duration
   minus the time its direct children cover). Also checks that no span's
   children add up to more than the span itself; returns the names of the
   parents that break this. *)
type totals = { calls : int; total_ns : int; self_ns : int }

let aggregate () =
  let n = !len in
  let child_ns = Array.make n 0 in
  for i = 0 to n - 1 do
    let p = !sparent.(i) in
    if p >= 0 then child_ns.(p) <- child_ns.(p) + dur_ns i
  done;
  let tbl = Hashtbl.create 16 in
  let broken = ref [] in
  for i = 0 to n - 1 do
    let d = dur_ns i in
    if child_ns.(i) > d && not (List.mem (span_name i) !broken) then
      broken := span_name i :: !broken;
    let k = span_name i in
    let t = Option.value (Hashtbl.find_opt tbl k) ~default:{ calls = 0; total_ns = 0; self_ns = 0 } in
    Hashtbl.replace tbl k
      { calls = t.calls + 1; total_ns = t.total_ns + d; self_ns = t.self_ns + d - child_ns.(i) }
  done;
  (tbl, !broken)

(* Durations of every span with this name, in recording order. *)
let durations_of nm =
  let id = name nm in
  let acc = ref [] in
  for i = !len - 1 downto 0 do
    if !sname.(i) = id then acc := float_of_int (dur_ns i) :: !acc
  done;
  Array.of_list !acc

(* Perfetto-loadable trace-event JSON: one complete ("X") event per span,
   timestamps in microseconds relative to the first span. Long runs record
   millions of spans; only the first [limit] are written, and the file says
   how many were left out. *)
let write_perfetto ~limit path =
  let n = min !len limit in
  let t0 = if !len > 0 then !sstart.(0) else 0 in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      for i = 0 to n - 1 do
        Printf.fprintf oc
          "%s{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}\n"
          (if i = 0 then "" else ",")
          (Resa_obs.Jsonu.escape (span_name i))
          (float_of_int (!sstart.(i) - t0) /. 1e3)
          (float_of_int (dur_ns i) /. 1e3)
          i !sparent.(i)
      done;
      Printf.fprintf oc "],\"otherData\":{\"spans_recorded\":%d,\"spans_written\":%d}}\n" !len n)
