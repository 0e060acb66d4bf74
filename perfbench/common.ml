(* Shared pieces of the harness: timing, order statistics, operation
   accounting, the metric list a run reports, and golden digests. *)

let now_s () = float_of_int (Spans.now_ns ()) /. 1e9

let time f =
  let t0 = Spans.now_ns () in
  let v = f () in
  (v, float_of_int (Spans.now_ns () - t0) /. 1e9)

(* Linear-interpolated quantile (numpy's default convention). *)
let quantile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: no samples";
  let x = q *. float_of_int (n - 1) in
  let i = int_of_float x in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median a = quantile a 0.5

(* --- Times at the reference speed ---------------------------------------

   Every end-to-end time is the seconds of a piece of work scaled by the
   host's speed around it (Calib), so that a run made while the host is in
   its slow state reads like one made in its fast state. The host switches
   state every few seconds, so the work is timed in segments of at least
   [segment_s]: a kernel sample closes each segment, and it serves as the
   next segment's sample before. A segment holds one or more whole items
   (a replay, a schedule, an exact solve); each item's seconds are scaled
   by its segment's factor. *)

let segment_s = 0.3
let last_sample = ref None
let samples = ref []

let sample () =
  let c = Calib.sample () in
  samples := c :: !samples;
  last_sample := Some c;
  c

(* The calls [f 0], ..., [f (n - 1)], one after another: each one's result,
   seconds and scale factor. With [~scale:false] no kernel runs and every
   factor is 1. *)
let timed_items ~scale n f =
  let out = Array.make n None in
  let before = ref (if scale then match !last_sample with Some c -> c | None -> sample () else 0.) in
  let seg = ref [] and seg_s = ref 0. in
  let close () =
    let k =
      if scale then begin
        let after = sample () in
        let k = Calib.scale ~before:!before ~after in
        before := after;
        k
      end
      else 1.
    in
    List.iter (fun (i, v, t) -> out.(i) <- Some (v, t, k)) !seg;
    seg := [];
    seg_s := 0.
  in
  for i = 0 to n - 1 do
    let v, t = time (fun () -> f i) in
    seg := (i, v, t) :: !seg;
    seg_s := !seg_s +. t;
    if !seg_s >= segment_s || i = n - 1 then close ()
  done;
  Array.map Option.get out

(* The scaled seconds of [n] items together. *)
let timed_total ~scale n f =
  Array.fold_left (fun acc ((), t, k) -> acc +. (t *. k)) 0. (timed_items ~scale n f)

(* --- Set-up time and pass counts -------------------------------------------

   setup_s is the median of [setup_runs] set-ups made back to back before
   the first pass, each regenerating the same inputs. *)

let setup_runs = 7
let setup_times = ref []

let time_setup f =
  let runs = timed_items ~scale:true setup_runs (fun _ -> f ()) in
  setup_times := Array.to_list (Array.map (fun (_, t, k) -> t *. k) runs);
  let v, _, _ = runs.(0) in
  v

let setup_s () = median (Array.of_list !setup_times)

(* The number of measured passes of a run is fixed by the workload and
   [--seconds], never by how fast the passes go, so that two versions of
   the program are measured over the same number of samples. [pass_s] is
   the length of one pass in the host's fast state when the benchmark was
   written (2-core x86-64 container), so a run takes about [seconds]
   there; the slow state stretches it by up to ~1.7x. *)
let passes ~pass_s ~seconds = max 2 (int_of_float (Float.round (seconds /. pass_s)))

let median_of l = median (Array.of_list l)

(* How the run saw the host, for its log line on stderr. *)
let speed_note () =
  if !samples = [] then ""
  else
    Printf.sprintf "; kernel median %.2f ms (reference %.2f ms)" (1e3 *. median_of !samples)
      (1e3 *. Calib.reference_s)

(* The measured part of a run: [passes] calls of [pass], with [rounds]
   calls of [round] spread evenly among them. The first pass is also the
   reference the checks compare the others with. Every round starts from
   a finished major GC cycle, whatever the passes before it left on the
   heap. Returns the passes' and the rounds' results in the order they
   ran, and the seconds the rounds took. *)
let measure ~passes ~rounds ~pass ~round =
  let ps = ref [] and rs = ref [] and round_s = ref 0. in
  for i = 0 to passes - 1 do
    while List.length !rs < (i + 1) * rounds / passes do
      Gc.full_major ();
      last_sample := None;
      let r, dt = time round in
      rs := r :: !rs;
      round_s := !round_s +. dt
    done;
    ps := pass () :: !ps
  done;
  (List.rev !ps, List.rev !rs, !round_s)

(* The per-policy metric suffix. *)
let policy_key (p : Resa_sim.Policy.t) = String.lowercase_ascii p.Resa_sim.Policy.name

(* --- Operation accounting ------------------------------------------------

   Every replay, schedule and exact solve is one attempted operation. It
   fails if it raises one of the program's error exceptions or if any check
   on its output is false; each failure is reported on stderr. *)

let attempted = ref 0
let failed = ref 0

let fail_op what msg =
  incr failed;
  Printf.eprintf "perfbench: FAILED %s: %s\n%!" what msg

(* Run one operation: [f] returns the list of failed check names. *)
let op what f =
  incr attempted;
  match f () with
  | [] -> ()
  | bad -> fail_op what ("check failed: " ^ String.concat ", " bad)
  | exception (Resa_sim.Simulator.Policy_error msg) -> fail_op what ("Policy_error " ^ msg)
  | exception Invalid_argument msg -> fail_op what ("Invalid_argument " ^ msg)
  | exception Resa_swf.Swf_stream.Parse_error { line; msg } ->
    fail_op what (Printf.sprintf "Parse_error line %d: %s" line msg)
  | exception Not_found -> fail_op what "no reference result: an earlier operation on it failed"

let checks l = List.filter_map (fun (name, ok) -> if ok then None else Some name) l

(* A regime guard: inputs that left their regime make the run refuse to
   report (exit 3, no result line). *)
let guard what ok =
  if not ok then begin
    Printf.eprintf "perfbench: regime guard failed: %s\n%!" what;
    exit 3
  end

(* --- Digests ------------------------------------------------------------ *)

(* Order-sensitive FNV-style hash over ints. *)
let digest_init = 0x2bf29ce484222325
let mix h x = (h lxor (x land 0xffffffff) lxor (x lsr 32)) * 0x100000001b3 land max_int
let digest_starts a = Array.fold_left mix digest_init a |> Printf.sprintf "%016x"

(* Golden digests for the default seeds, one "workload key digest" line
   each, kept beside the harness. A key missing from the file is a
   failure, so a change of schedules cannot slip through unnoticed;
   [--record-golden] prints fresh lines to replace them deliberately. *)
let golden_path = "perfbench/golden.txt"
let recording = ref false
let recorded = ref []

let golden =
  lazy
    (if Sys.file_exists golden_path then
       In_channel.with_open_text golden_path In_channel.input_all
       |> String.split_on_char '\n'
       |> List.filter_map (fun l ->
              match String.split_on_char ' ' (String.trim l) with
              | [ w; k; d ] -> Some ((w, k), d)
              | _ -> None)
     else [])

(* [None] when the seed is not the workload's default (no golden applies),
   else whether [digest] matches the stored one. *)
let golden_ok ~workload ~default_seed ~seed key digest =
  if seed <> default_seed then true
  else if !recording then begin
    recorded := Printf.sprintf "%s %s %s" workload key digest :: !recorded;
    true
  end
  else List.assoc_opt (workload, key) (Lazy.force golden) = Some digest

(* --- Result ------------------------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

let peak_rss_mb () =
  match Resa_obs.Prof.peak_rss_kb () with
  | Some kb -> float_of_int kb /. 1024.
  | None -> Float.nan

let print_result () =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let ms =
    List.rev !metrics
    |> List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (String.concat ", " ms)

(* Scratch space for generated inputs and trace files, inside the checkout. *)
let work_dir = ".bench_work"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end
