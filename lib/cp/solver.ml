module T = Mapreduce.Types
module Instance = Sched.Instance
module Solution = Sched.Solution
module Greedy = Sched.Greedy

type incumbent = {
  carried_starts : (int, int) Hashtbl.t;
  changed_jobs : int list;
}

type options = {
  ordering : Greedy.order;
  exact_task_limit : int;
  fail_limit : int;
  time_limit : float;
  lns_neighbors : int;
  lns_max_stall : int;
  seed : int;
  tie_break : Search.tie_break;
  instrument : bool;
  warm_start : incumbent option;
  kernel : Propagators.kernel;
  restart : Restart.policy;
}

let default_options =
  {
    ordering = Greedy.Edf;
    exact_task_limit = 120;
    fail_limit = 20_000;
    time_limit = 0.5;
    lns_neighbors = 4;
    lns_max_stall = 12;
    seed = 0;
    tie_break = Search.Slack_first;
    instrument = false;
    warm_start = None;
    kernel = Propagators.Both;
    restart = Restart.Off;
  }

(* Hooks a portfolio coordinator installs so concurrent workers share the
   incumbent Σ N_j and stop as soon as one of them proves optimality.  The
   null link (used by the plain sequential {!solve}) makes every hook a
   no-op, so the linked code path is observably identical to the historical
   sequential solver. *)
type link = {
  should_stop : unit -> bool;
  global_bound : unit -> int;
  announce : int -> unit;
  isolated : bool;
}

let null_link =
  {
    should_stop = (fun () -> false);
    global_bound = (fun () -> max_int);
    announce = ignore;
    isolated = true;
  }

type stats = Obs.Solve_stats.t = {
  seed_late : int;
  lower_bound : int;
  proved_optimal : bool;
  warm_seeded : bool;
  stop_reason : Obs.Solve_stats.stop_reason;
  nodes : int;
  failures : int;
  restarts : int;
  lns_moves : int;
  elapsed : float;
  metrics : Obs.Metrics.snapshot option;
}

let pp_stats = Obs.Solve_stats.pp

(* Wave-based lower bound on the span of a task set under a capacity:
   no schedule can beat the longest task, nor total-work/capacity. *)
let wave_bound tasks capacity =
  if Array.length tasks = 0 then 0
  else begin
    let total = ref 0 and longest = ref 0 in
    Array.iter
      (fun (t : T.task) ->
        total := !total + (t.T.exec_time * t.T.capacity_req);
        if t.T.exec_time > !longest then longest := t.T.exec_time)
      tasks;
    max !longest (((!total + capacity) - 1) / capacity)
  end

let job_min_completion (inst : Instance.t) (j : Instance.pending_job) =
  let map_span = wave_bound j.Instance.pending_maps inst.Instance.map_capacity in
  let map_end = max j.Instance.frozen_lfmt (j.Instance.est + map_span) in
  let completion =
    if Array.length j.Instance.pending_reduces = 0 then map_end
    else
      map_end
      + wave_bound j.Instance.pending_reduces inst.Instance.reduce_capacity
  in
  max j.Instance.frozen_completion completion

let job_doomed (inst : Instance.t) (j : Instance.pending_job) =
  job_min_completion inst j > j.Instance.job.T.deadline

let late_lower_bound (inst : Instance.t) =
  Array.fold_left
    (fun acc j -> if job_doomed inst j then acc + 1 else acc)
    0 inst.Instance.jobs

let count registry name v =
  match registry with
  | Some r -> Obs.Metrics.add (Obs.Metrics.counter r name) v
  | None -> ()

(* EDF sequence with provably-doomed jobs pushed last: a job that cannot meet
   its deadline in any schedule should not take resources ahead of savable
   ones — the sacrifice the CP objective makes naturally, pre-baked into a
   seed. *)
let doomed_last_sequence (inst : Instance.t) =
  let jobs = inst.Instance.jobs in
  let doomed = Array.map (job_doomed inst) jobs in
  let seq = Array.init (Array.length jobs) (fun i -> i) in
  let key i =
    (doomed.(i), jobs.(i).Instance.job.T.deadline, jobs.(i).Instance.job.T.id)
  in
  Array.sort (fun a b -> compare (key a) (key b)) seq;
  seq

(* Best greedy seed across the orderings (plus the doomed-last variant),
   preferring the configured one on ties.  [?preferred] lets a caller that
   already ran the configured ordering hand the result in.  A pass is a pure
   function of its job sequence, so a repeated sequence would only yield a
   plan the strictly-better fold has already weighed; and a plan with 0 late
   jobs has 0 tardiness, so nothing after it can be strictly better.  Both
   skips therefore return exactly the four-pass fold's seed. *)
let greedy_seed ?registry ?preferred ~ordering inst =
  let passes = ref 0 and skipped = ref 0 in
  let first = Greedy.sequence ordering inst in
  let run sequence =
    incr passes;
    Greedy.solve_with_sequence inst sequence
  in
  let best =
    ref (match preferred with Some p -> p | None -> run first)
  in
  let ran = ref [ first ] in
  let race next =
    if !best.Solution.late_jobs = 0 then incr skipped
    else begin
      let sequence = next () in
      if List.mem sequence !ran then incr skipped
      else begin
        ran := sequence :: !ran;
        let sol = run sequence in
        if Solution.better sol !best then best := sol
      end
    end
  in
  List.iter
    (fun order ->
      if order <> ordering then race (fun () -> Greedy.sequence order inst))
    [ Greedy.By_job_id; Greedy.Edf; Greedy.Least_laxity ];
  race (fun () -> doomed_last_sequence inst);
  count registry "seed/greedy_passes" !passes;
  count registry "seed/orders_skipped" !skipped;
  !best

(* Freeze the pending tasks of every non-relaxed job at their incumbent
   start times, producing the LNS subproblem. *)
let freeze_except (inst : Instance.t) (incumbent : Solution.t) relax_set =
  let jobs =
    Array.mapi
      (fun jdx (j : Instance.pending_job) ->
        if Hashtbl.mem relax_set jdx then j
        else begin
          let freeze (task : T.task) =
            {
              Instance.task;
              start = Solution.start_of incumbent ~task_id:task.T.task_id;
            }
          in
          let new_fixed_maps = Array.map freeze j.Instance.pending_maps in
          let new_fixed_reduces = Array.map freeze j.Instance.pending_reduces in
          let completion_of (f : Instance.fixed_task) =
            f.Instance.start + f.Instance.task.T.exec_time
          in
          let fold = Array.fold_left (fun acc f -> max acc (completion_of f)) in
          let frozen_lfmt = fold j.Instance.frozen_lfmt new_fixed_maps in
          let frozen_completion =
            fold (fold (max j.Instance.frozen_completion frozen_lfmt)
                    new_fixed_maps)
              new_fixed_reduces
          in
          {
            j with
            Instance.pending_maps = [||];
            pending_reduces = [||];
            fixed_maps = Array.append j.Instance.fixed_maps new_fixed_maps;
            fixed_reduces =
              Array.append j.Instance.fixed_reduces new_fixed_reduces;
            frozen_lfmt;
            frozen_completion;
          }
        end)
      inst.Instance.jobs
  in
  { inst with Instance.jobs = jobs }

let merge_starts (inst : Instance.t) (incumbent : Solution.t)
    (partial : Solution.t) =
  let merged = Hashtbl.copy incumbent.Solution.starts in
  Hashtbl.iter (Hashtbl.replace merged) partial.Solution.starts;
  Solution.evaluate inst merged

(* Structural fingerprint of an LNS fragment: which jobs are frozen and at
   which start times.  Nogoods recorded against a fragment are only valid
   for bit-identical frozen context, so this is compared as a full string —
   never a hash, where a collision would make the pruning unsound. *)
let frozen_fingerprint (inst : Instance.t) (incumbent : Solution.t) relax_set =
  let b = Buffer.create 256 in
  Array.iteri
    (fun jdx (j : Instance.pending_job) ->
      if not (Hashtbl.mem relax_set jdx) then begin
        Buffer.add_string b (string_of_int jdx);
        Buffer.add_char b ':';
        let add (task : T.task) =
          Buffer.add_string b
            (string_of_int
               (Solution.start_of incumbent ~task_id:task.T.task_id));
          Buffer.add_char b ','
        in
        Array.iter add j.Instance.pending_maps;
        Array.iter add j.Instance.pending_reduces;
        Buffer.add_char b ';'
      end)
    inst.Instance.jobs;
  Buffer.contents b

(* Checks the same Table-1 constraints as [Solution.feasibility_errors] —
   every pending task has a start, starts respect est, reduces respect the
   job's latest-finishing-map time, pool capacities are never exceeded — but
   with per-task arithmetic plus one bulk-loaded profile per pool instead of
   replaying every task through [Profile.add].  This runs on every
   warm-started solve, where the replay was measured to cost as much as a
   whole greedy pass.  The first sweep copies each pending start into a flat
   array (instance order: a job's maps, then its reduces), so building the
   profiles does no further table lookups. *)
let candidate_feasible (inst : Instance.t) (sol : Solution.t) =
  let jobs = inst.Instance.jobs in
  let pending_starts = Array.make (Instance.pending_task_count inst) 0 in
  let k = ref 0 in
  let ok = ref true in
  Array.iter
    (fun (j : Instance.pending_job) ->
      let lfmt = ref j.Instance.frozen_lfmt in
      let visit check (task : T.task) =
        match Hashtbl.find_opt sol.Solution.starts task.T.task_id with
        | None -> ok := false
        | Some s ->
            check s task;
            pending_starts.(!k) <- s;
            incr k
      in
      Array.iter
        (visit (fun s task ->
             if s < j.Instance.est then ok := false;
             if s + task.T.exec_time > !lfmt then lfmt := s + task.T.exec_time))
        j.Instance.pending_maps;
      Array.iter
        (visit (fun s _ -> if s < !lfmt then ok := false))
        j.Instance.pending_reduces)
    jobs;
  let pool_fits ~capacity ~maps =
    let profile =
      Sched.Profile.of_tasks ~capacity (fun emit ->
          let emit_task start (task : T.task) =
            emit ~start ~duration:task.T.exec_time ~amount:task.T.capacity_req
          in
          let k = ref 0 in
          Array.iter
            (fun (j : Instance.pending_job) ->
              Array.iter
                (fun (f : Instance.fixed_task) ->
                  emit_task f.Instance.start f.Instance.task)
                (if maps then j.Instance.fixed_maps else j.Instance.fixed_reduces);
              let n_maps = Array.length j.Instance.pending_maps in
              let base = if maps then !k else !k + n_maps in
              Array.iteri
                (fun i task -> emit_task pending_starts.(base + i) task)
                (if maps then j.Instance.pending_maps
                 else j.Instance.pending_reduces);
              k := !k + n_maps + Array.length j.Instance.pending_reduces)
            jobs)
    in
    Sched.Profile.max_usage profile <= capacity
  in
  !ok
  && pool_fits ~capacity:inst.Instance.map_capacity ~maps:true
  && pool_fits ~capacity:inst.Instance.reduce_capacity ~maps:false

(* Complete a carried-over plan into a full candidate solution for the
   updated instance.  A job is "covered" when every one of its pending tasks
   still has a carried (non-stale) start; covered jobs are frozen at those
   starts and the remaining jobs (new arrivals, or jobs whose carried entries
   went stale) are list-scheduled around them.  The result is only returned
   when it passes the Table-1 constraint check, so a warm start can never
   inject an infeasible incumbent. *)
let warm_candidate (inst : Instance.t) (inc : incumbent) =
  let fresh j (task : T.task) =
    (* a carried start below the job's current est is stale (the clock or a
       deferral release bumped s_j past it) and poisons the whole job *)
    match Hashtbl.find_opt inc.carried_starts task.T.task_id with
    | Some s -> s >= j.Instance.est
    | None -> false
  in
  let covered (j : Instance.pending_job) =
    Array.for_all (fresh j) j.Instance.pending_maps
    && Array.for_all (fresh j) j.Instance.pending_reduces
  in
  let uncovered = Hashtbl.create 8 in
  Array.iteri
    (fun jdx j -> if not (covered j) then Hashtbl.replace uncovered jdx ())
    inst.Instance.jobs;
  let n_jobs = Array.length inst.Instance.jobs in
  if n_jobs = 0 || Hashtbl.length uncovered = n_jobs then None
  else begin
    let starts = Hashtbl.create 64 in
    Array.iteri
      (fun jdx (j : Instance.pending_job) ->
        if not (Hashtbl.mem uncovered jdx) then begin
          let copy (task : T.task) =
            Hashtbl.replace starts task.T.task_id
              (Hashtbl.find inc.carried_starts task.T.task_id)
          in
          Array.iter copy j.Instance.pending_maps;
          Array.iter copy j.Instance.pending_reduces
        end)
      inst.Instance.jobs;
    if Hashtbl.length uncovered > 0 then begin
      let pseudo = { Solution.starts; late_jobs = 0; total_tardiness = 0 } in
      let sub = freeze_except inst pseudo uncovered in
      (* fixed Edf completion order keeps the candidate identical across
         portfolio workers whatever their own seed ordering is *)
      let partial = Greedy.solve ~order:Greedy.Edf sub in
      Hashtbl.iter (Hashtbl.replace starts) partial.Solution.starts
    end;
    let sol = Solution.evaluate inst starts in
    if candidate_feasible inst sol then Some sol else None
  end

(* The incumbent the search pipeline actually starts from.  Cold solves take
   the best greedy seed over every ordering.  Warm solves put the carried
   plan on the critical path instead of on top of it: when the caller
   supplies the lower bound and the warm candidate already meets it, no
   greedy runs at all (the plan-cache-hit fast path — the whole solve
   reduces to one coverage check plus a list-scheduling completion);
   otherwise the candidate is raced against a single pass of the configured
   ordering, and only when it loses does the full multi-ordering cold seed
   run.  Ties go to the warm plan — it minimizes churn against the previous
   schedule.  The returned flag records whether the warm candidate won. *)
let starting_incumbent ?registry ~options ?lb inst =
  let cold () = (greedy_seed ?registry ~ordering:options.ordering inst, false) in
  match options.warm_start with
  | None -> cold ()
  | Some inc -> (
      match warm_candidate inst inc with
      | None -> cold ()
      | Some warm
        when (match lb with
             | Some b -> warm.Solution.late_jobs <= b
             | None -> false) ->
          (warm, true)
      | Some warm ->
          let preferred = Greedy.solve ~order:options.ordering inst in
          count registry "seed/greedy_passes" 1;
          if not (Solution.better preferred warm) then (warm, true)
          else
            ( greedy_seed ?registry ~preferred ~ordering:options.ordering inst,
              false ))

(* Drain a searched store's per-propagator telemetry into the registry. *)
let harvest_store registry store =
  Obs.Metrics.add (Obs.Metrics.counter registry "store/propagations")
    (Store.stats_propagations store);
  Obs.Metrics.add (Obs.Metrics.counter registry "prop/wakeups_skipped")
    (Store.stats_wakeups_skipped store);
  Obs.Metrics.add (Obs.Metrics.counter registry "prop/edge_finder_prunes")
    (Store.stats_edge_finder_prunes store);
  Obs.Metrics.add (Obs.Metrics.counter registry "prop/scratch_reuse")
    (Store.stats_scratch_reuse store);
  Obs.Metrics.add (Obs.Metrics.counter registry "nogood/prunes")
    (Store.stats_nogood_prunes store);
  List.iter
    (fun (pm : Store.prop_metric) ->
      let pfx = "prop/" ^ pm.Store.prop_name in
      Obs.Metrics.add (Obs.Metrics.counter registry (pfx ^ "/fires"))
        pm.Store.fires;
      Obs.Metrics.add (Obs.Metrics.counter registry (pfx ^ "/fails"))
        pm.Store.fails;
      Obs.Metrics.observe
        (Obs.Metrics.histogram registry (pfx ^ "/time_s"))
        pm.Store.time_s)
    (Store.propagator_metrics store)

(* One incumbent start value per model start variable, for solution-guided
   value ordering; tasks the solution does not cover get no guidance. *)
let guide_of_solution model (sol : Solution.t) =
  Array.map
    (fun (tv : Model.task_var) ->
      match Hashtbl.find_opt sol.Solution.starts tv.Model.task.T.task_id with
      | Some s -> s
      | None -> min_int)
    model.Model.starts

let run_exact ?tie_break ?registry ?kernel ?(restart = Restart.Off) ?nogoods
    ?guide_sol inst ~bound_to_beat ~limits =
  let model = Model.build ?kernel inst ~horizon:(Model.default_horizon inst) in
  model.Model.bound := bound_to_beat;
  (match registry with
  | Some _ -> Store.set_instrumented model.Model.store true
  | None -> ());
  let nogoods = if restart = Restart.Off then None else nogoods in
  let attach_ok =
    match nogoods with
    | None -> true
    | Some db -> (
        let vars =
          Array.append model.Model.lates
            (Array.map (fun (tv : Model.task_var) -> tv.Model.var)
               model.Model.starts)
        in
        try
          Nogood.attach db model.Model.store ~vars;
          true
        with Store.Fail _ -> false)
  in
  let outcome =
    if attach_ok then
      let guide = Option.map (guide_of_solution model) guide_sol in
      Search.run ?tie_break ~restart ?nogoods ?guide model limits
    else
      (* a carried nogood failed the fresh root: no solution beats
         [bound_to_beat], which is a (cheap) proof of optimality *)
      {
        Search.best = None;
        proved_optimal = true;
        stopped = Search.Exhausted;
        nodes = 0;
        failures = 1;
        restarts = 0;
      }
  in
  (match registry with
  | Some r ->
      harvest_store r model.Model.store;
      Obs.Metrics.add
        (Obs.Metrics.counter r "restart/restarts")
        outcome.Search.restarts
  | None -> ());
  outcome

(* Everything after the seed: the bound check, then exact search or LNS.
   [t0] is the pass start — the origin of [elapsed] and the anchor of the
   [time_limit] deadline — so a caller that seeded before handing over is
   charged for its seeding too.  [lb] is any valid lower bound on Σ N_j and
   [classic_lb <= lb] the instance's own {!late_lower_bound}: every regime
   stops as soon as its incumbent meets [lb], and such a stop above
   [classic_lb] is the carried bound's proof ([Hit_carried_bound]).
   Without nogoods, an LNS move whose relaxed job set and bound were
   already searched in vain against the current incumbent is counted as a
   stall without running; [lns_moves], [nodes] and [failures] count only
   the moves that ran, and [lns/moves_skipped] the others. *)
let search_from ~options ~link ~registry ~t0 ~classic_lb ~lb
    (seed_sol, warm_seeded) (inst : Instance.t) =
  let deadline = t0 +. options.time_limit in
  (* why a pass whose incumbent met [lb] without an exhaustive search
     stopped *)
  let bound_met (sol : Solution.t) =
    if sol.Solution.late_jobs > classic_lb then
      Obs.Solve_stats.Hit_carried_bound
    else Obs.Solve_stats.Proved
  in
  link.announce seed_sol.Solution.late_jobs;
  let nodes = ref 0
  and failures = ref 0
  and restarts = ref 0
  and lns_moves = ref 0 in
  (* one nogood database for the whole solve: the exact path keeps a single
     context, LNS moves share clauses across identically-frozen fragments *)
  let db =
    if options.restart = Restart.Off then None else Some (Nogood.create ())
  in
  let finish ~stop incumbent proved =
    (match (registry, db) with
    | Some r, Some d ->
        Obs.Metrics.add
          (Obs.Metrics.counter r "nogood/recorded")
          (Nogood.stats_recorded d);
        Obs.Metrics.add
          (Obs.Metrics.counter r "nogood/unit_props")
          (Nogood.stats_unit_props d);
        Obs.Metrics.add
          (Obs.Metrics.counter r "nogood/conflicts")
          (Nogood.stats_conflicts d)
    | _ -> ());
    ( incumbent,
      {
        seed_late = seed_sol.Solution.late_jobs;
        lower_bound = lb;
        proved_optimal = proved;
        warm_seeded;
        stop_reason = stop;
        nodes = !nodes;
        failures = !failures;
        restarts = !restarts;
        lns_moves = !lns_moves;
        elapsed = Obs.Clock.now () -. t0;
        metrics = Option.map Obs.Metrics.snapshot registry;
      } )
  in
  if seed_sol.Solution.late_jobs <= lb then
    finish seed_sol true
      ~stop:
        (match bound_met seed_sol with
        | Obs.Solve_stats.Proved when warm_seeded -> Obs.Solve_stats.Cache_hit
        | stop -> stop)
  else begin
    let task_count = Instance.pending_task_count inst in
    if task_count <= options.exact_task_limit then begin
      (* an improving solution that reaches [lb] is already optimal — stop
         there instead of exhausting the rest of the tree to re-prove it *)
      let hit_lb = ref false in
      let limits =
        {
          Search.fail_limit = options.fail_limit;
          node_limit = 0;
          wall_deadline = Some deadline;
          interrupt = Some (fun () -> !hit_lb || link.should_stop ());
          tighten_bound =
            (if link.isolated then None else Some link.global_bound);
          on_improve =
            Some
              (fun v ->
                if v <= lb then hit_lb := true;
                link.announce v);
        }
      in
      (match db with Some d -> Nogood.set_context d "exact" | None -> ());
      let outcome =
        run_exact ~tie_break:options.tie_break ?registry ~kernel:options.kernel
          ~restart:options.restart ?nogoods:db ~guide_sol:seed_sol inst
          ~bound_to_beat:seed_sol.Solution.late_jobs ~limits
      in
      nodes := outcome.Search.nodes;
      failures := outcome.Search.failures;
      restarts := outcome.Search.restarts;
      let incumbent =
        match outcome.Search.best with
        | Some better -> better
        | None -> seed_sol
      in
      let proved =
        outcome.Search.proved_optimal || incumbent.Solution.late_jobs <= lb
      in
      finish incumbent proved
        ~stop:
          (if outcome.Search.proved_optimal then Obs.Solve_stats.Proved
           else if proved then bound_met incumbent
           else Search.stop_reason_of_cause outcome.Search.stopped)
    end
    else begin
      (* LNS over job neighbourhoods *)
      let rng = Simrand.Rng.create options.seed in
      let n_jobs = Array.length inst.Instance.jobs in
      let incumbent = ref seed_sol in
      let stall = ref 0 in
      (* warm start: the jobs the caller flagged as changed since the last
         solve (new arrivals, repaired jobs) are relaxed on the first move,
         so the search immediately re-optimizes around the delta instead of
         a random neighbourhood *)
      let changed_idxs =
        match options.warm_start with
        | Some { changed_jobs = (_ :: _) as ids; _ } ->
            let wanted = Hashtbl.create 16 in
            List.iter (fun id -> Hashtbl.replace wanted id ()) ids;
            let acc = ref [] in
            Array.iteri
              (fun jdx (j : Instance.pending_job) ->
                if Hashtbl.mem wanted j.Instance.job.T.id then acc := jdx :: !acc)
              inst.Instance.jobs;
            !acc
        | Some _ | None -> []
      in
      (* Fragments already searched in vain against the current incumbent,
         keyed by (sorted relaxed job indices, bound to beat).  Without a
         nogood database a move is a pure function of that key and the
         incumbent: a fail-limited rerun walks the same tree to the same
         cut, and a wall- or interrupt-cut move is the loop's last.  So a
         recorded key is a stall without the rerun.  An improvement changes
         the incumbent and clears the record (whatever the link's global
         bound does next); nogoods make reruns differ, so no memo is kept
         under them. *)
      let memoize = db = None in
      let futile = Hashtbl.create 16 in
      let drawn = ref 0 and skipped = ref 0 in
      let continue () =
        !incumbent.Solution.late_jobs > lb
        && !stall < options.lns_max_stall
        && Obs.Clock.now () < deadline
        && not (link.should_stop ())
      in
      while continue () do
        incr drawn;
        let relax_set = Hashtbl.create 16 in
        if !drawn = 1 then
          List.iter (fun jdx -> Hashtbl.replace relax_set jdx ()) changed_idxs;
        (* all currently-late jobs ... *)
        Array.iteri
          (fun jdx (j : Instance.pending_job) ->
            let completion =
              Solution.job_completion j !incumbent.Solution.starts
            in
            if completion > j.Instance.job.T.deadline then
              Hashtbl.replace relax_set jdx ())
          inst.Instance.jobs;
        (* ... plus a few random neighbours *)
        for _ = 1 to options.lns_neighbors do
          Hashtbl.replace relax_set (Simrand.Rng.int rng n_jobs) ()
        done;
        (* prune against the best solution found anywhere: a fragment is only
           worth exploring if it can beat the global incumbent *)
        let bound_to_beat =
          if link.isolated then !incumbent.Solution.late_jobs
          else min !incumbent.Solution.late_jobs (link.global_bound ())
        in
        let key =
          ( List.sort compare
              (Hashtbl.fold (fun jdx () acc -> jdx :: acc) relax_set []),
            bound_to_beat )
        in
        if memoize && Hashtbl.mem futile key then begin
          incr skipped;
          incr stall
        end
        else begin
          incr lns_moves;
          let sub = freeze_except inst !incumbent relax_set in
          let limits =
            {
              Search.fail_limit = options.fail_limit;
              node_limit = 0;
              wall_deadline = Some deadline;
              interrupt = Some link.should_stop;
              (* the subsearch walks a local neighbourhood; foreign bounds
                 feed in through [bound_to_beat] above, not mid-search, so
                 the isolated (sequential-replica) trajectory stays
                 reproducible *)
              tighten_bound = None;
              on_improve = None;
            }
          in
          (* clauses survive to the next move exactly when its frozen
             context is identical (common when consecutive moves relax the
             same late jobs); otherwise the context switch clears them *)
          (match db with
          | Some d ->
              Nogood.set_context d
                (frozen_fingerprint inst !incumbent relax_set)
          | None -> ());
          let run () =
            run_exact ~tie_break:options.tie_break ?registry
              ~kernel:options.kernel ~restart:options.restart ?nogoods:db
              ~guide_sol:!incumbent sub ~bound_to_beat ~limits
          in
          let outcome =
            if Obs.Trace.enabled () then
              Obs.Trace.with_span ~cat:"search" "lns-move"
                ~args:
                  [
                    ("relaxed_jobs", Obs.Trace.Int (Hashtbl.length relax_set));
                  ]
                run
            else run ()
          in
          nodes := !nodes + outcome.Search.nodes;
          failures := !failures + outcome.Search.failures;
          restarts := !restarts + outcome.Search.restarts;
          match outcome.Search.best with
          | Some partial ->
              let merged = merge_starts inst !incumbent partial in
              if Solution.better merged !incumbent then begin
                incumbent := merged;
                stall := 0;
                Hashtbl.reset futile;
                link.announce merged.Solution.late_jobs
              end
              else incr stall
          | None ->
              if memoize then Hashtbl.replace futile key ();
              incr stall
        end
      done;
      count registry "lns/moves_skipped" !skipped;
      (* mirror [continue]'s evaluation order for the attributed cause *)
      let stop =
        if !incumbent.Solution.late_jobs <= lb then bound_met !incumbent
        else if !stall >= options.lns_max_stall then Obs.Solve_stats.Lns_stall
        else if not (Obs.Clock.now () < deadline) then
          Obs.Solve_stats.Wall_limit
        else Obs.Solve_stats.Interrupted
      in
      finish !incumbent (!incumbent.Solution.late_jobs <= lb) ~stop
    end
  end

let new_registry options =
  if options.instrument then Some (Obs.Metrics.create ()) else None

let solve_linked ~options ~link (inst : Instance.t) =
  let t0 = Obs.Clock.now () in
  let registry = new_registry options in
  let lb = late_lower_bound inst in
  let seed = starting_incumbent ?registry ~options ~lb inst in
  search_from ~options ~link ~registry ~t0 ~classic_lb:lb ~lb seed inst

let solve_seeded ~options ~link ~t0 ~classic_lb ~lb ~seed inst =
  search_from ~options ~link ~registry:(new_registry options) ~t0 ~classic_lb
    ~lb seed inst

let solve ?(options = default_options) (inst : Instance.t) =
  solve_linked ~options ~link:null_link inst
