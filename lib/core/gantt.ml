let job_chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

let job_char i = job_chars.[i mod String.length job_chars]

(* Tasks to place, merging jobs (packed from processor 0 up) and
   reservations (packed from processor m-1 down). *)
type piece = { start : int; stop : int; need : int; from_top : bool; index : int }

let assign_processors inst sched =
  (match Schedule.validate inst sched with
  | Ok () -> ()
  | Error v -> invalid_arg (Format.asprintf "Gantt: infeasible schedule: %a" Schedule.pp_violation v));
  let m = Instance.m inst in
  let pieces = ref [] in
  Array.iteri
    (fun i r ->
      pieces :=
        { start = Reservation.start r; stop = Reservation.stop r; need = Reservation.q r;
          from_top = true; index = -i - 1 }
        :: !pieces)
    (Instance.reservations inst);
  for i = 0 to Instance.n_jobs inst - 1 do
    let j = Instance.job inst i in
    let s = Schedule.start sched i in
    pieces := { start = s; stop = s + Job.p j; need = Job.q j; from_top = false; index = i } :: !pieces
  done;
  let pieces = Array.of_list !pieces in
  (* Sweep chronologically; ties: reservations first so they grab the top. *)
  Array.sort
    (fun a b ->
      let c = Int.compare a.start b.start in
      if c <> 0 then c else Bool.compare b.from_top a.from_top)
    pieces;
  let busy_until = Array.make m 0 in
  let out = Array.make (Instance.n_jobs inst) [||] in
  Array.iter
    (fun piece ->
      let free = ref [] in
      (* Collect free processors, ordered according to packing direction. *)
      if piece.from_top then
        for proc = 0 to m - 1 do
          if busy_until.(proc) <= piece.start then free := proc :: !free
        done
      else
        for proc = m - 1 downto 0 do
          if busy_until.(proc) <= piece.start then free := proc :: !free
        done;
      let chosen = Array.make piece.need 0 in
      let rec take k = function
        | _ when k = piece.need -> ()
        | [] -> assert false (* feasibility guarantees enough free processors *)
        | proc :: rest ->
          chosen.(k) <- proc;
          busy_until.(proc) <- piece.stop;
          take (k + 1) rest
      in
      take 0 !free;
      Array.sort Int.compare chosen;
      if not piece.from_top then out.(piece.index) <- chosen)
    pieces;
  out

let render ?(width = 72) inst sched =
  if width < 1 then invalid_arg "Gantt.render: width must be >= 1";
  let m = Instance.m inst in
  let cmax = max (Schedule.makespan inst sched) (Instance.horizon inst) in
  let buf = Buffer.create 1024 in
  if cmax = 0 then Buffer.add_string buf "(empty schedule)\n"
  else begin
    let cols = min width cmax in
    let time_of_col c = c * cmax / cols in
    let grid = Array.make_matrix m cols '.' in
    (* Reservations: recompute a top-down packing consistent with
       assign_processors by replaying the same sweep. *)
    let assignment = assign_processors inst sched in
    let paint procs lo hi ch =
      for c = 0 to cols - 1 do
        let t = time_of_col c in
        if lo <= t && t < hi then Array.iter (fun proc -> grid.(proc).(c) <- ch) procs
      done
    in
    (* Jobs. *)
    Array.iteri
      (fun i procs ->
        let j = Instance.job inst i in
        let s = Schedule.start sched i in
        paint procs s (s + Job.p j) (job_char i))
      assignment;
    (* Reservations: we do not keep their assignment; repaint via a second
       sweep using remaining cells. Simpler: recompute piece placement for
       reservations only, from the top, against job occupancy per column. *)
    Array.iter
      (fun r ->
        let lo = Reservation.start r and hi = Reservation.stop r in
        for c = 0 to cols - 1 do
          let t = time_of_col c in
          if lo <= t && t < hi then begin
            let placed = ref 0 in
            let proc = ref 0 in
            while !placed < Reservation.q r && !proc < m do
              if grid.(!proc).(c) = '.' then begin
                grid.(!proc).(c) <- '#';
                incr placed
              end;
              incr proc
            done
          end
        done)
      (Instance.reservations inst);
    (* Header ruler. *)
    Buffer.add_string buf (Printf.sprintf "t=0 .. %d (%d col%s)\n" cmax cols (if cols > 1 then "s" else ""));
    for proc = 0 to m - 1 do
      Buffer.add_string buf (Printf.sprintf "%3d|" proc);
      Buffer.add_string buf (String.init cols (fun c -> grid.(proc).(c)));
      Buffer.add_char buf '\n'
    done
  end;
  Buffer.contents buf

let render_profile ?(width = 72) ?(height = 12) profile ~hi =
  let buf = Buffer.create 256 in
  if hi <= 0 then Buffer.add_string buf "(empty window)\n"
  else begin
    let cols = min width hi in
    let vmax = max 1 (Profile.max_on profile ~lo:0 ~hi) in
    let rows = min height vmax in
    let sample c = Profile.value_at profile (c * hi / cols) in
    for row = rows - 1 downto 0 do
      let threshold = (row + 1) * vmax / rows in
      Buffer.add_string buf (Printf.sprintf "%4d|" threshold);
      for c = 0 to cols - 1 do
        Buffer.add_char buf (if sample c >= threshold then '*' else ' ')
      done;
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf (Printf.sprintf "    +%s t=0..%d\n" (String.make cols '-') hi)
  end;
  Buffer.contents buf
