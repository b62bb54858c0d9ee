module T = Mapreduce.Types

type limits = {
  fail_limit : int;
  node_limit : int;
  wall_deadline : float option;
  interrupt : (unit -> bool) option;
  tighten_bound : (unit -> int) option;
  on_improve : (int -> unit) option;
}

let no_limits =
  {
    fail_limit = 0;
    node_limit = 0;
    wall_deadline = None;
    interrupt = None;
    tighten_bound = None;
    on_improve = None;
  }

type tie_break = Slack_first | Duration_first | Deadline_first

let tie_break_to_string = function
  | Slack_first -> "slack"
  | Duration_first -> "duration"
  | Deadline_first -> "deadline"

type start_info = { svar : Store.var; duration : int; deadline : int }

type 'a problem = {
  store : Store.t;
  starts : start_info array;
  lates : (Store.var * int) array;
  bound : int ref;
  bound_pid : Store.propagator_id;
  extract : unit -> 'a * int;
}

type stop_cause = Exhausted | Node_budget | Fail_budget | Wall_clock | Interrupt

let stop_reason_of_cause = function
  | Exhausted -> Obs.Solve_stats.Proved
  | Node_budget -> Obs.Solve_stats.Node_limit
  | Fail_budget -> Obs.Solve_stats.Fail_limit
  | Wall_clock -> Obs.Solve_stats.Wall_limit
  | Interrupt -> Obs.Solve_stats.Interrupted

type 'a generic_outcome = {
  best : 'a option;
  proved_optimal : bool;
  stopped : stop_cause;
  nodes : int;
  failures : int;
  restarts : int;
}

exception Limit_reached

type 'a state = {
  problem : 'a problem;
  limits : limits;
  tie_break : tie_break;
  (* [Obs.Trace.enabled] sampled once per search, so the hot path tests a
     plain immutable bool instead of an atomic. *)
  tracing : bool;
  (* restart machinery; with [restart_on = false] every field below is inert
     and the search is the single chronological DFS it always was *)
  restart_on : bool;
  nogoods : Nogood.t option;
  guide : int array;  (* per-start incumbent value; min_int = none *)
  (* lates indices presorted by (deadline, index): [select_late] resumes
     from the first entry not yet fixed on the current path instead of
     rescanning all jobs at every node *)
  late_order : int array;
  (* current path's decisions as bound literals, two ints per entry:
     [(vref lsl 2) lor (dir lsl 1) lor pos; const] with dir 1 = ">=" and
     pos 1 = a positive (left) decision, 0 = a refutation point.  The
     rightmost branch at a restart, read off for nogood extraction.
     vref is the job index for a lateness variable, n_lates + i for
     starts.(i) — the {!Nogood} attachment convention. *)
  mutable dtrail : int array;
  mutable dtrail_len : int;
  mutable best : 'a option;
  mutable nodes : int;
  mutable failures : int;
  mutable restarts : int;
  mutable slice_fail_stop : int;  (* failure count ending the slice *)
  mutable slice_hit : bool;  (* Limit_reached meant "restart", not "stop" *)
  mutable stop_cause : stop_cause;  (* which hard limit cut the search *)
  mutable last_conflict_late : int;  (* lates index, -1 = none *)
  mutable last_conflict_start : int;  (* starts index, -1 = none *)
  mutable late_cursor : int;  (* out-param of [select_late] *)
  mutable ticks : int;  (* countdown to the next wall-clock check *)
}

(* The closures below are only allocated on the tracing branch, so the
   untraced path is exactly the direct call. *)
let propagate_st st s =
  if st.tracing then
    Obs.Trace.with_span ~cat:"search" "propagate" (fun () -> Store.propagate s)
  else Store.propagate s

let backtrack_st st s =
  if st.tracing then
    Obs.Trace.with_span ~cat:"search" "backtrack" (fun () -> Store.backtrack s)
  else Store.backtrack s

(* Push one decision-trail entry; pops are a plain [dtrail_len - 2].  Both
   are skipped on a [Limit_reached] unwind so that at a restart cut the
   trail holds exactly the current (rightmost) path, and the length is
   reset at the start of every slice. *)
let dpush st ~vref ~ge ~positive const =
  if st.dtrail_len + 2 > Array.length st.dtrail then begin
    let a = Array.make (2 * Array.length st.dtrail) 0 in
    Array.blit st.dtrail 0 a 0 st.dtrail_len;
    st.dtrail <- a
  end;
  st.dtrail.(st.dtrail_len) <-
    (vref lsl 2) lor (if ge then 2 else 0) lor (if positive then 1 else 0);
  st.dtrail.(st.dtrail_len + 1) <- const;
  st.dtrail_len <- st.dtrail_len + 2

let check_limits st =
  if st.limits.node_limit > 0 && st.nodes >= st.limits.node_limit then begin
    st.slice_hit <- false;
    st.stop_cause <- Node_budget;
    raise Limit_reached
  end;
  if st.limits.fail_limit > 0 && st.failures >= st.limits.fail_limit then begin
    st.slice_hit <- false;
    st.stop_cause <- Fail_budget;
    raise Limit_reached
  end;
  if st.failures >= st.slice_fail_stop then begin
    st.slice_hit <- true;
    raise Limit_reached
  end;
  st.ticks <- st.ticks - 1;
  if st.ticks <= 0 then begin
    st.ticks <- 64;
    (match st.limits.interrupt with
    | Some stop when stop () ->
        st.slice_hit <- false;
        st.stop_cause <- Interrupt;
        raise Limit_reached
    | _ -> ());
    (* Adopt an incumbent bound found by a sibling portfolio worker.  The
       bound ref only ever tightens, and the objective cut is re-scheduled at
       every node, so lowering it here is safe mid-search. *)
    (match st.limits.tighten_bound with
    | Some global ->
        let g = global () in
        if g < !(st.problem.bound) then st.problem.bound := g
    | None -> ());
    match st.limits.wall_deadline with
    | Some deadline when Obs.Clock.now () > deadline ->
        st.slice_hit <- false;
        st.stop_cause <- Wall_clock;
        raise Limit_reached
    | _ -> ()
  end

(* Pick the undecided lateness variable of the job with the earliest
   deadline: the first undecided entry of [late_order] at or after
   [late_from] (everything before was fixed when skipped, and fixing is
   monotone down a branch).  Returns the lates index, or -1 when all are
   decided; [st.late_cursor] is set to the resume position for the
   children.  Under restarts, an undecided last-conflict variable takes
   priority. *)
let select_late st late_from =
  let s = st.problem.store in
  let lates = st.problem.lates in
  if
    st.restart_on
    && st.last_conflict_late >= 0
    && not (Store.is_fixed s (fst lates.(st.last_conflict_late)))
  then begin
    st.late_cursor <- late_from;
    st.last_conflict_late
  end
  else begin
    let order = st.late_order in
    let n = Array.length order in
    let k = ref late_from in
    while !k < n && Store.is_fixed s (fst lates.(Array.unsafe_get order !k)) do
      incr k
    done;
    st.late_cursor <- !k;
    if !k >= n then -1 else order.(!k)
  end

(* Pick the SetTimes candidate: unfixed, and not postponed at its current
   est.  postponed.(i) holds the est at which task i was postponed, or
   min_int. *)
let select_start st postponed =
  let s = st.problem.store in
  let starts = st.problem.starts in
  (* under restarts, re-branch first on the start whose decision caused the
     most recent failure (last-conflict reasoning) *)
  let lc = if st.restart_on then st.last_conflict_start else -1 in
  if
    lc >= 0
    && (not (Store.is_fixed s starts.(lc).svar))
    && postponed.(lc) <> Store.min_of s starts.(lc).svar
  then lc
  else begin
    let best = ref (-1) in
    (* the (est, k2, k3) selection key, kept in three int refs so the scan —
       O(tasks) per node — never allocates or falls into polymorphic compare *)
    let b_est = ref max_int and b_k2 = ref max_int and b_k3 = ref min_int in
    for i = 0 to Array.length starts - 1 do
      let info = Array.unsafe_get starts i in
      if not (Store.is_fixed s info.svar) then begin
        let est = Store.min_of s info.svar in
        if postponed.(i) <> est then begin
          let slack = info.deadline - est - info.duration in
          (* always prefer small est; the remaining tie-break is the
             portfolio's diversification axis *)
          let k2 =
            match st.tie_break with
            | Slack_first -> slack
            | Duration_first -> -info.duration
            | Deadline_first -> info.deadline
          and k3 =
            match st.tie_break with
            | Slack_first | Deadline_first -> -info.duration
            | Duration_first -> slack
          in
          if
            est < !b_est
            || (est = !b_est && (k2 < !b_k2 || (k2 = !b_k2 && k3 < !b_k3)))
          then begin
            b_est := est;
            b_k2 := k2;
            b_k3 := k3;
            best := i
          end
        end
      end
    done;
    !best
  end

let all_starts_fixed st =
  Array.for_all
    (fun info -> Store.is_fixed st.problem.store info.svar)
    st.problem.starts

let record_solution st =
  (* The true late count can be below Σ N_j (constraint (4) is
     one-directional), and the bound may have been tightened by a solution in
     a sibling subtree, so re-check improvement here. *)
  let payload, late_count = st.problem.extract () in
  if late_count < !(st.problem.bound) then begin
    st.best <- Some payload;
    st.problem.bound := late_count;
    (* solution-guided value ordering: later branching steers each start
       toward the incumbent's value *)
    if st.restart_on then begin
      let s = st.problem.store in
      let starts = st.problem.starts in
      for k = 0 to Array.length starts - 1 do
        st.guide.(k) <- Store.min_of s starts.(k).svar
      done
    end;
    match st.limits.on_improve with
    | Some announce -> announce late_count
    | None -> ()
  end

let rec dfs st postponed late_from =
  check_limits st;
  st.nodes <- st.nodes + 1;
  match select_late st late_from with
  | -1 ->
      (* all lates decided: children resume past the whole order *)
      start_phase st postponed st.late_cursor
  | j ->
      let cur = st.late_cursor in
      branch_late st postponed cur j

and start_phase st postponed late_from =
  let s = st.problem.store in
  match select_start st postponed with
  | -1 ->
      if all_starts_fixed st then record_solution st
      (* else: every unfixed task is postponed at an unchanged est —
         dominated dead end *)
  | i ->
      let info = st.problem.starts.(i) in
      let v = info.svar in
      let min_ = Store.min_of s v in
      let g = if st.restart_on then st.guide.(i) else min_int in
      if g >= min_ && g <= Store.max_of s v then begin
        (* solution-guided domain split converging on the incumbent start g:
           a strict partition on both sides, so SetTimes dominance is not
           needed for completeness here.  The left literal (v <= g, or
           v >= g when g sits on the max) goes on the decision trail; the
           right branch asserts its true complement. *)
        let max_ = Store.max_of s v in
        let vref = Array.length st.problem.lates + i in
        if g < max_ then
          branch_start st postponed late_from i ~vref ~ge:false ~const:g
            ~left:(fun () -> Store.set_max s v g)
            ~right:(fun () -> Store.set_min s v (g + 1))
        else
          branch_start st postponed late_from i ~vref ~ge:true ~const:g
            ~left:(fun () -> Store.set_min s v g)
            ~right:(fun () -> Store.set_max s v (g - 1))
      end
      else branch_asym st postponed late_from i min_

(* Two store-changing branches over a lateness variable, with decision
   recording (for nogood extraction) and conflict attribution. *)
and branch_late st postponed late_from j =
  let s = st.problem.store in
  let late = fst st.problem.lates.(j) in
  (* left literal N_j <= 0; the right branch asserts its true complement *)
  let attempt positive f =
    if st.restart_on then dpush st ~vref:j ~ge:false ~positive 0;
    Store.push_level s;
    (try
       f ();
       (* the incumbent bound may have moved: re-check the objective cut *)
       Store.schedule s st.problem.bound_pid;
       propagate_st st s;
       dfs st postponed late_from
     with Store.Fail _ ->
       st.failures <- st.failures + 1;
       if st.restart_on then st.last_conflict_late <- j);
    backtrack_st st s;
    if st.restart_on then st.dtrail_len <- st.dtrail_len - 2
  in
  let left () = attempt true (fun () -> Store.set_max s late 0)
  and right () = attempt false (fun () -> Store.set_min s late 1) in
  if st.tracing then begin
    Obs.Trace.with_span ~cat:"search" "branch" left;
    Obs.Trace.with_span ~cat:"search" "branch" right
  end
  else begin
    left ();
    right ()
  end

(* Two store-changing branches over a start variable (guided split); the
   left literal is (vref, <=/>=, const) per [ge]. *)
and branch_start st postponed late_from i ~vref ~ge ~const ~left ~right =
  let s = st.problem.store in
  let attempt positive f =
    dpush st ~vref ~ge ~positive const;
    Store.push_level s;
    (try
       f ();
       Store.schedule s st.problem.bound_pid;
       propagate_st st s;
       dfs st postponed late_from
     with Store.Fail _ ->
       st.failures <- st.failures + 1;
       if st.restart_on then st.last_conflict_start <- i);
    backtrack_st st s;
    st.dtrail_len <- st.dtrail_len - 2
  in
  if st.tracing then begin
    Obs.Trace.with_span ~cat:"search" "branch" (fun () -> attempt true left);
    Obs.Trace.with_span ~cat:"search" "branch" (fun () -> attempt false right)
  end
  else begin
    attempt true left;
    attempt false right
  end

(* SetTimes: left fixes at est and changes the store; right only updates
   the postponed bookkeeping in place (no store change, hence no
   propagation and no new level needed) and undoes it afterwards — the
   restore is skipped on a [Limit_reached] unwind, which is fine because
   the array is refilled at the start of every slice. *)
and branch_asym st postponed late_from i est =
  let s = st.problem.store in
  (* The left literal is v <= est: the node's propagated minimum is est, so
     under the decision prefix it is equivalent to fixing v = est.  The
     postponement asserts nothing (a vacuous negative), but it is still a
     refutation point — the fix subtree was exhausted first — so it leaves
     a pos=0 trail entry for nogood extraction. *)
  let vref = Array.length st.problem.lates + i in
  let attempt () =
    if st.restart_on then dpush st ~vref ~ge:false ~positive:true est;
    Store.push_level s;
    (try
       Store.fix s st.problem.starts.(i).svar est;
       Store.schedule s st.problem.bound_pid;
       propagate_st st s;
       dfs st postponed late_from
     with Store.Fail _ ->
       st.failures <- st.failures + 1;
       if st.restart_on then st.last_conflict_start <- i);
    backtrack_st st s;
    if st.restart_on then st.dtrail_len <- st.dtrail_len - 2
  in
  if st.tracing then Obs.Trace.with_span ~cat:"search" "branch" attempt
  else attempt ();
  if st.restart_on then dpush st ~vref ~ge:false ~positive:false est;
  let old = postponed.(i) in
  postponed.(i) <- est;
  dfs st postponed late_from;
  postponed.(i) <- old;
  if st.restart_on then st.dtrail_len <- st.dtrail_len - 2

(* At a restart, every refutation point on the current (rightmost) path
   yields an nld-nogood: the positive literals before it, plus its refuted
   left literal (see nogood.mli for why negatives can be dropped — guided
   and lateness rights are true complements, postponements are vacuous).
   Recorded against the incumbent bound at this restart, which is at least
   as tight as when each left subtree was exhausted; bounds only tighten,
   so the clauses stay valid for the rest of the solve. *)
let extract_nogoods st db =
  let bound = !(st.problem.bound) in
  let prefix = Array.make ((st.dtrail_len / 2) + 1) 0 in
  let n_pos = ref 0 in
  let d = ref 0 in
  while !d < st.dtrail_len do
    let tag = st.dtrail.(!d) and a = st.dtrail.(!d + 1) in
    let vref = tag lsr 2 in
    let lit =
      if tag land 2 <> 0 then Nogood.lit_ge vref a else Nogood.lit_le vref a
    in
    if tag land 1 = 1 then begin
      prefix.(!n_pos) <- lit;
      incr n_pos
    end
    else begin
      let lits = Array.make (!n_pos + 1) 0 in
      Array.blit prefix 0 lits 0 !n_pos;
      lits.(!n_pos) <- lit;
      Nogood.record db ~lits ~bound
    end;
    d := !d + 2
  done

let run_problem ?(tie_break = Slack_first) ?(restart = Restart.Off) ?nogoods
    ?guide problem limits =
  let tracing = Obs.Trace.enabled () in
  let t0 = if tracing then Obs.Trace.now_us () else 0. in
  let restart_on = restart <> Restart.Off in
  let n_starts = Array.length problem.starts in
  let n_lates = Array.length problem.lates in
  let late_order = Array.init n_lates (fun j -> j) in
  Array.sort
    (fun a b ->
      let da = snd problem.lates.(a) and db = snd problem.lates.(b) in
      if da <> db then compare da db else compare a b)
    late_order;
  let st =
    {
      problem;
      limits;
      tie_break;
      tracing;
      restart_on;
      nogoods = (if restart_on then nogoods else None);
      guide =
        (match guide with
        | Some g -> g
        | None -> Array.make n_starts min_int);
      late_order;
      dtrail = Array.make (4 * (n_lates + n_starts + 1)) 0;
      dtrail_len = 0;
      best = None;
      nodes = 0;
      failures = 0;
      restarts = 0;
      slice_fail_stop = max_int;
      slice_hit = false;
      stop_cause = Exhausted;
      last_conflict_late = -1;
      last_conflict_start = -1;
      late_cursor = 0;
      ticks = 1;
    }
  in
  let s = problem.store in
  let postponed = Array.make n_starts min_int in
  let rec slices k =
    st.slice_hit <- false;
    st.slice_fail_stop <-
      (match Restart.slice restart k with
      | 0 -> max_int
      | budget -> st.failures + budget);
    Array.fill postponed 0 n_starts min_int;
    st.dtrail_len <- 0;
    let completed =
      try
        (try
           if k > 1 then Store.schedule s problem.bound_pid;
           propagate_st st s;
           dfs st postponed 0
         with Store.Fail _ -> st.failures <- st.failures + 1);
        true
      with Limit_reached -> false
    in
    if completed then true
    else if st.slice_hit then begin
      (match st.nogoods with
      | Some db -> extract_nogoods st db
      | None -> ());
      Store.backtrack_to_root s;
      st.restarts <- st.restarts + 1;
      if tracing then
        Obs.Trace.instant ~cat:"search" "restart"
          ~args:
            [
              ("slice", Obs.Trace.Int k);
              ("failures", Obs.Trace.Int st.failures);
              ( "nogoods",
                Obs.Trace.Int
                  (match st.nogoods with
                  | Some db -> Nogood.size db
                  | None -> 0) );
            ];
      (* committing the fresh nogoods can fail the root: then no improving
         solution exists and the search is complete *)
      match
        match st.nogoods with Some db -> Nogood.commit db | None -> ()
      with
      | () -> slices (k + 1)
      | exception Store.Fail _ ->
          st.failures <- st.failures + 1;
          true
    end
    else false
  in
  let proved_optimal = slices 1 in
  Store.backtrack_to_root s;
  if tracing then
    Obs.Trace.complete ~cat:"search" ~ts:t0 "search"
      ~args:
        [
          ("nodes", Obs.Trace.Int st.nodes);
          ("failures", Obs.Trace.Int st.failures);
          ("restarts", Obs.Trace.Int st.restarts);
          ("proved_optimal", Obs.Trace.Bool proved_optimal);
          ("tie_break", Obs.Trace.Str (tie_break_to_string tie_break));
          ("restart_policy", Obs.Trace.Str (Restart.to_string restart));
        ];
  {
    best = st.best;
    proved_optimal;
    stopped = (if proved_optimal then Exhausted else st.stop_cause);
    nodes = st.nodes;
    failures = st.failures;
    restarts = st.restarts;
  }

(* --- MapReduce-model entry point -------------------------------------- *)

type outcome = {
  best : Sched.Solution.t option;
  proved_optimal : bool;
  stopped : stop_cause;
  nodes : int;
  failures : int;
  restarts : int;
}

let problem_of_model (m : Model.t) =
  let deadline_of jdx =
    m.Model.instance.Sched.Instance.jobs.(jdx).Sched.Instance.job.T.deadline
  in
  {
    store = m.Model.store;
    starts =
      Array.map
        (fun (tv : Model.task_var) ->
          {
            svar = tv.Model.var;
            duration = tv.Model.task.T.exec_time;
            deadline = deadline_of tv.Model.job_index;
          })
        m.Model.starts;
    lates = Array.mapi (fun jdx late -> (late, deadline_of jdx)) m.Model.lates;
    bound = m.Model.bound;
    bound_pid = m.Model.bound_pid;
    extract =
      (fun () ->
        let sol = Model.extract m in
        (sol, sol.Sched.Solution.late_jobs));
  }

let run ?tie_break ?restart ?nogoods ?guide model limits =
  let o =
    run_problem ?tie_break ?restart ?nogoods ?guide (problem_of_model model)
      limits
  in
  {
    best = o.best;
    proved_optimal = o.proved_optimal;
    stopped = o.stopped;
    nodes = o.nodes;
    failures = o.failures;
    restarts = o.restarts;
  }
