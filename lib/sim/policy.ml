open Resa_core
module Trace = Resa_obs.Trace
module Prof = Resa_obs.Prof

type action = {
  start_now : Job.t list;
  wake : int option;
}

type decide = time:int -> queue:Jobq.t -> free:View.t -> action

type t = {
  name : string;
  create : obs:Resa_obs.Trace.t -> decide;
}

(* The all-constant action is shared: a decision that starts nothing and
   requests no wake-up costs zero words. *)
let idle = { start_now = []; wake = None }

(* --- timeline-native policies ------------------------------------------- *)

let fits free ~time job = View.fits free ~at:time ~dur:(Job.p job) ~need:(Job.q job)

let earliest_at free ~from job =
  View.earliest_fit_at free ~from ~dur:(Job.p job) ~need:(Job.q job)

(* Speculative allocation of [job]'s window at [time]. The simulator's
   post-decision pass either commits these wholesale — when the log is
   exactly the started jobs' reservations, the common case — or rolls them
   back and re-applies authoritatively. Every call site has just verified
   the window ([fits], or CONS's plan which never exceeds free capacity),
   so the re-checking [View.reserve] would redo a descent per start. *)
let take free ~time job =
  View.reserve_fitting free ~start:time ~dur:(Job.p job) ~need:(Job.q job)

(* Per-policy decision counters (RESA_PROF). *)
let c_fcfs = Prof.counter "policy.decide.FCFS"
let c_lsrc = Prof.counter "policy.decide.LSRC"
let c_easy = Prof.counter "policy.decide.EASY"
let c_cons = Prof.counter "policy.decide.CONS"

(* The scan functions below are top-level and take the queue by index so
   that a decision which starts nothing allocates nothing: no closure per
   decide, no list view of the queue, cons cells only for jobs actually
   started. *)

(* Start the longest startable prefix; the blocked head, if any, yields
   the next wake-up. *)
let rec fcfs_go ~obs ~time queue free i n =
  if i >= n then idle
  else begin
    let head = Jobq.get queue i in
    if fits free ~time head then begin
      take free ~time head;
      let rest = fcfs_go ~obs ~time queue free (i + 1) n in
      { rest with start_now = head :: rest.start_now }
    end
    else begin
      let at = earliest_at free ~from:(time + 1) head in
      if Trace.enabled obs then
        Trace.emit obs (Trace.Planned { time; policy = "FCFS"; job = Job.id head; at });
      { start_now = []; wake = Some at }
    end
  end

let fcfs =
  let create ~obs ~time ~queue ~free =
    Prof.incr c_fcfs;
    fcfs_go ~obs ~time queue free 0 (Jobq.length queue)
  in
  { name = "FCFS"; create }

let rec lsrc_go ~time queue free i n =
  if i >= n then []
  else begin
    let j = Jobq.get queue i in
    if fits free ~time j then begin
      take free ~time j;
      j :: lsrc_go ~time queue free (i + 1) n
    end
    else lsrc_go ~time queue free (i + 1) n
  end

let aggressive =
  let create ~obs:_ ~time ~queue ~free =
    Prof.incr c_lsrc;
    match lsrc_go ~time queue free 0 (Jobq.length queue) with
    | [] -> idle
    | started -> { start_now = started; wake = None }
  in
  { name = "LSRC"; create }

(* EASY: start the fitting prefix; once the head blocks, protect its
   guaranteed start while backfilling. Each candidate is tried under a
   checkpoint — reserved, the guarantee re-derived — and kept or rolled
   back. *)
let rec easy_prefix ~obs ~time queue free i n =
  if i >= n then idle
  else begin
    let head = Jobq.get queue i in
    if fits free ~time head then begin
      take free ~time head;
      let rest = easy_prefix ~obs ~time queue free (i + 1) n in
      { rest with start_now = head :: rest.start_now }
    end
    else begin
      let guaranteed = earliest_at free ~from:time head in
      if Trace.enabled obs then
        Trace.emit obs
          (Trace.Planned { time; policy = "EASY"; job = Job.id head; at = guaranteed });
      {
        start_now = easy_backfill ~time queue free head guaranteed (i + 1) n;
        wake = Some guaranteed;
      }
    end
  end

and easy_backfill ~time queue free head guaranteed i n =
  if i >= n then []
  else begin
    let j = Jobq.get queue i in
    if fits free ~time j then begin
      let mark = View.checkpoint free in
      take free ~time j;
      if earliest_at free ~from:time head <= guaranteed then begin
        View.commit free mark;
        j :: easy_backfill ~time queue free head guaranteed (i + 1) n
      end
      else begin
        View.rollback free mark;
        easy_backfill ~time queue free head guaranteed (i + 1) n
      end
    end
    else easy_backfill ~time queue free head guaranteed (i + 1) n
  end

let easy =
  let create ~obs ~time ~queue ~free =
    Prof.incr c_easy;
    easy_prefix ~obs ~time queue free 0 (Jobq.length queue)
  in
  { name = "EASY"; create }

let conservative =
  let create ~obs =
    (* Per-run plan state, freshly scoped by the factory: the plan timeline
       holds availability minus every planned (and once-planned) window;
       [planned] maps job id to its promised start and the estimated job. *)
    let planned : (int, int * Job.t) Hashtbl.t = Hashtbl.create 64 in
    let plan = ref None in
    (* Queued jobs with an index below [known] are exactly the planned
       ones: the simulator only appends arrivals at the tail and removes
       the jobs this policy just started (which leave [planned] too), so
       planning scans the fresh tail instead of the whole queue. *)
    let known = ref 0 in
    (* Lazy min-heap of (start, id) promises: the wake-up instant and the
       jobs due now are read off the top instead of folding over the
       queue. Entries go stale when a job starts or is replanned; they are
       dropped when they surface, after checking [planned] still carries
       exactly that promise. *)
    let hs = ref (Array.make 64 0) in
    let hid = ref (Array.make 64 0) in
    let hlen = ref 0 in
    let heap_swap i j =
      let a = !hs and b = !hid in
      let s = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- s;
      let d = b.(i) in
      b.(i) <- b.(j);
      b.(j) <- d
    in
    let rec sift_up i =
      if i > 0 && (!hs).(i) < (!hs).((i - 1) / 2) then begin
        heap_swap i ((i - 1) / 2);
        sift_up ((i - 1) / 2)
      end
    in
    let rec sift_down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let s = if l < !hlen && (!hs).(l) < (!hs).(i) then l else i in
      let s = if r < !hlen && (!hs).(r) < (!hs).(s) then r else s in
      if s <> i then begin
        heap_swap i s;
        sift_down s
      end
    in
    let heap_push s id =
      if !hlen = Array.length !hs then begin
        hs := Array.append !hs (Array.make !hlen 0);
        hid := Array.append !hid (Array.make !hlen 0)
      end;
      (!hs).(!hlen) <- s;
      (!hid).(!hlen) <- id;
      incr hlen;
      sift_up (!hlen - 1)
    in
    let heap_drop_top () =
      decr hlen;
      if !hlen > 0 then begin
        heap_swap 0 !hlen;
        sift_down 0
      end
    in
    (* Earliest still-valid promise, popping stale tops on the way. All
       remaining promises are strictly after the current decision instant
       (due ones were consumed as start candidates). *)
    let rec wake_top () =
      if !hlen = 0 then None
      else begin
        let s = (!hs).(0) and id = (!hid).(0) in
        match Hashtbl.find planned id with
        | s', _ when s' = s -> Some s
        | _ | exception Not_found ->
          heap_drop_top ();
          wake_top ()
      end
    in
    (* Promises due at (or overdue before) the decision instant, as an id
       set: consumed by one in-order queue pass per starting decision. *)
    let cand : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let plan_job p ~time j ~from =
      let s = Timeline.earliest_fit_at p ~from ~dur:(Job.p j) ~need:(Job.q j) in
      Hashtbl.replace planned (Job.id j) (s, j);
      heap_push s (Job.id j);
      if Trace.enabled obs then
        Trace.emit obs (Trace.Planned { time; policy = "CONS"; job = Job.id j; at = s });
      (* [s] came out of [earliest_fit_at] just above: the window fits by
         construction, skip the checked reserve's second descent. *)
      Timeline.reserve_fitting p ~start:s ~dur:(Job.p j) ~need:(Job.q j);
      s
    in
    fun ~time ~queue ~free ->
      Prof.incr c_cons;
      let p =
        match !plan with
        | Some p -> p
        | None ->
          (* First decision: seed the plan with the forward capacity (the
             only profile export conservative ever pays, once per run). *)
          let p = Timeline.of_profile (View.snapshot free) in
          plan := Some p;
          p
      in
      (* The plan accretes one window per job forever; on streamed replays
         that history is the policy's only unbounded state. Planning only
         ever queries at or after [time], so compacting the past is
         invisible to decisions (and hence to traces); the plan decides
         when it pays. *)
      ignore (Timeline.advance p ~now:time : bool);
      let n = Jobq.length queue in
      (* Plan newly arrived jobs at their earliest non-delaying start. *)
      for i = !known to n - 1 do
        ignore (plan_job p ~time (Jobq.get queue i) ~from:time)
      done;
      (* Pull every promise due by now off the heap. *)
      let ncand = ref 0 in
      while !hlen > 0 && (!hs).(0) <= time do
        let s = (!hs).(0) and id = (!hid).(0) in
        heap_drop_top ();
        match Hashtbl.find planned id with
        | s', _ when s' = s ->
          if not (Hashtbl.mem cand id) then begin
            Hashtbl.replace cand id ();
            incr ncand
          end
        | _ | exception Not_found -> ()
      done;
      (* Launch jobs whose planned instant has come — walking the queue in
         order, so starts and defensive replans happen exactly as the old
         whole-queue filter did. Stragglers (should not happen when
         wake-ups are honoured) are replanned from now. *)
      let start_now =
        if !ncand = 0 then []
        else begin
          let rec sel i remaining =
            if remaining = 0 || i >= n then []
            else begin
              let j = Jobq.get queue i in
              let id = Job.id j in
              if not (Hashtbl.mem cand id) then sel (i + 1) remaining
              else begin
                Hashtbl.remove cand id;
                let s, _ = Hashtbl.find planned id in
                if s = time then j :: sel (i + 1) (remaining - 1)
                else if s < time then begin
                  (* Undo the stale window with the inverse range-add
                     (clamped to the plan's gc origin — the collapsed part
                     is never queried again), replan from now. *)
                  let lo = max s (Timeline.origin p) in
                  if lo < s + Job.p j then
                    Timeline.change p ~lo ~hi:(s + Job.p j) ~delta:(Job.q j);
                  if plan_job p ~time j ~from:time = time then
                    j :: sel (i + 1) (remaining - 1)
                  else sel (i + 1) (remaining - 1)
                end
                else sel (i + 1) (remaining - 1)
              end
            end
          in
          sel 0 !ncand
        end
      in
      (match start_now with
      | [] -> ()
      | _ :: _ ->
        (* A started job never reappears in the queue, so its promise entry
           is dead — dropping it here keeps [planned] proportional to the
           live queue. Its plan window stays reserved: the machine really
           is occupied. *)
        List.iter (fun j -> Hashtbl.remove planned (Job.id j)) start_now;
        (* Mirror the starts on the live timeline: the plan guarantees the
           capacity is there (the plan never exceeds the free capacity),
           and the simulator commits these reservations directly. *)
        List.iter (fun j -> take free ~time j) start_now);
      known := n - (match start_now with [] -> 0 | l -> List.length l);
      let wake = wake_top () in
      match (start_now, wake) with
      | [], None -> idle
      | _ -> { start_now; wake }
  in
  { name = "CONS"; create }

let all = [ fcfs; conservative; easy; aggressive ]

(* --- Profile-based reference oracles ------------------------------------ *)

(* The pre-timeline-native engine, verbatim: every decision exports the
   forward profile once (what the simulator used to hand every policy) and
   re-derives its plan with persistent [Profile] chains. Same names, same
   decisions — the differential suite holds the native policies to that.
   Being oracles, they consume the queue as a plain list. *)

let p_fits free ~time job = Profile.min_on free ~lo:time ~hi:(time + Job.p job) >= Job.q job

let p_earliest free ~from job =
  Option.get (Profile.earliest_fit free ~from ~dur:(Job.p job) ~need:(Job.q job))

let fcfs_reference =
  let create ~obs ~time ~queue ~free =
    let queue = Jobq.to_list queue in
    let free = View.snapshot free in
    let rec go free = function
      | [] -> ([], None)
      | head :: rest when p_fits free ~time head ->
        let free = Profile.reserve free ~start:time ~dur:(Job.p head) ~need:(Job.q head) in
        let started, wake = go free rest in
        (head :: started, wake)
      | head :: _ ->
        let at = p_earliest free ~from:(time + 1) head in
        if Trace.enabled obs then
          Trace.emit obs (Trace.Planned { time; policy = "FCFS"; job = Job.id head; at });
        ([], Some at)
    in
    let start_now, wake = go free queue in
    { start_now; wake }
  in
  { name = "FCFS"; create }

let aggressive_reference =
  let create ~obs:_ ~time ~queue ~free =
    let queue = Jobq.to_list queue in
    let free = View.snapshot free in
    let rec go free = function
      | [] -> []
      | j :: rest when p_fits free ~time j ->
        let free = Profile.reserve free ~start:time ~dur:(Job.p j) ~need:(Job.q j) in
        j :: go free rest
      | _ :: rest -> go free rest
    in
    { start_now = go free queue; wake = None }
  in
  { name = "LSRC"; create }

let easy_reference =
  let create ~obs ~time ~queue ~free =
    let queue = Jobq.to_list queue in
    let free = View.snapshot free in
    let rec pop_prefix free = function
      | head :: rest when p_fits free ~time head ->
        let free = Profile.reserve free ~start:time ~dur:(Job.p head) ~need:(Job.q head) in
        let started, wake = pop_prefix free rest in
        (head :: started, wake)
      | [] -> ([], None)
      | head :: rest ->
        let guaranteed = p_earliest free ~from:time head in
        if Trace.enabled obs then
          Trace.emit obs
            (Trace.Planned { time; policy = "EASY"; job = Job.id head; at = guaranteed });
        let rec backfill free = function
          | [] -> []
          | j :: tl ->
            if p_fits free ~time j then begin
              let free' = Profile.reserve free ~start:time ~dur:(Job.p j) ~need:(Job.q j) in
              if p_earliest free' ~from:time head <= guaranteed then j :: backfill free' tl
              else backfill free tl
            end
            else backfill free tl
        in
        (backfill free rest, Some guaranteed)
    in
    let start_now, wake = pop_prefix free queue in
    { start_now; wake }
  in
  { name = "EASY"; create }

let conservative_reference =
  let create ~obs =
    let planned : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let plan = ref None in
    fun ~time ~queue ~free ->
      let queue = Jobq.to_list queue in
      (* The per-decision snapshot is the cost being measured: the old
         engine rebuilt this profile at every event whether or not the
         decision consulted it. *)
      let snap = View.snapshot free in
      let p = match !plan with None -> snap | Some p -> p in
      let p =
        List.fold_left
          (fun p j ->
            if Hashtbl.mem planned (Job.id j) then p
            else begin
              let s = p_earliest p ~from:time j in
              Hashtbl.replace planned (Job.id j) s;
              if Trace.enabled obs then
                Trace.emit obs (Trace.Planned { time; policy = "CONS"; job = Job.id j; at = s });
              Profile.reserve p ~start:s ~dur:(Job.p j) ~need:(Job.q j)
            end)
          p queue
      in
      let p = ref p in
      let start_now =
        List.filter
          (fun j ->
            let s = Hashtbl.find planned (Job.id j) in
            if s = time then true
            else if s < time then begin
              p := Profile.change !p ~lo:s ~hi:(s + Job.p j) ~delta:(Job.q j);
              let s' = p_earliest !p ~from:time j in
              Hashtbl.replace planned (Job.id j) s';
              if Trace.enabled obs then
                Trace.emit obs (Trace.Planned { time; policy = "CONS"; job = Job.id j; at = s' });
              p := Profile.reserve !p ~start:s' ~dur:(Job.p j) ~need:(Job.q j);
              s' = time
            end
            else false)
          queue
      in
      plan := Some !p;
      (* Started ids as a hashset: the membership probe the wake fold needs
         is O(1), where [List.memq start_now] made the fold quadratic in
         the queue length. *)
      let started : (int, unit) Hashtbl.t =
        Hashtbl.create (1 + (2 * List.length start_now))
      in
      List.iter (fun j -> Hashtbl.replace started (Job.id j) ()) start_now;
      let wake =
        List.fold_left
          (fun acc j ->
            if Hashtbl.mem started (Job.id j) then acc
            else begin
              let s = Hashtbl.find planned (Job.id j) in
              if s > time then Some (match acc with None -> s | Some a -> min a s) else acc
            end)
          None queue
      in
      { start_now; wake }
  in
  { name = "CONS"; create }

let all_reference =
  [ fcfs_reference; conservative_reference; easy_reference; aggressive_reference ]
