(* Differential tests for the LNS loop of {!Cp.Solver}.

   Without a nogood database an LNS move is a pure function of its relaxed
   job set, the bound it must beat and the incumbent, so the solver skips a
   move whose (set, bound) pair it has already searched in vain against the
   same incumbent.  The skip must be invisible in the plan: the loop below
   is the one from before the skip, built on [Cp.Model] and [Cp.Search]
   directly and kept here as the reference.  Its cutoffs are wall-clock
   free (infinite time limit, fail limits only), so both sides must agree
   exactly: same starts, late count, tardiness and stop reason, and every
   move the reference ran is either run or skipped. *)

module T = Mapreduce.Types
module Instance = Sched.Instance
module Solution = Sched.Solution

(* --- reference: the LNS loop that reruns every move --------------------- *)

let ref_freeze_except (inst : Instance.t) (incumbent : Solution.t) relax_set =
  let freeze_job jdx (j : Instance.pending_job) =
    if Hashtbl.mem relax_set jdx then j
    else begin
      let freeze (task : T.task) =
        {
          Instance.task;
          start = Solution.start_of incumbent ~task_id:task.T.task_id;
        }
      in
      let maps = Array.map freeze j.Instance.pending_maps in
      let reduces = Array.map freeze j.Instance.pending_reduces in
      let finish acc (f : Instance.fixed_task) =
        max acc (f.Instance.start + f.Instance.task.T.exec_time)
      in
      let frozen_lfmt = Array.fold_left finish j.Instance.frozen_lfmt maps in
      let frozen_completion =
        Array.fold_left finish
          (Array.fold_left finish
             (max j.Instance.frozen_completion frozen_lfmt)
             maps)
          reduces
      in
      {
        j with
        Instance.pending_maps = [||];
        pending_reduces = [||];
        fixed_maps = Array.append j.Instance.fixed_maps maps;
        fixed_reduces = Array.append j.Instance.fixed_reduces reduces;
        frozen_lfmt;
        frozen_completion;
      }
    end
  in
  { inst with Instance.jobs = Array.mapi freeze_job inst.Instance.jobs }

let ref_move ~(options : Cp.Solver.options) sub ~bound_to_beat
    (incumbent : Solution.t) =
  let model =
    Cp.Model.build ~kernel:options.Cp.Solver.kernel sub
      ~horizon:(Cp.Model.default_horizon sub)
  in
  model.Cp.Model.bound := bound_to_beat;
  let guide =
    Array.map
      (fun (tv : Cp.Model.task_var) ->
        match
          Hashtbl.find_opt incumbent.Solution.starts tv.Cp.Model.task.T.task_id
        with
        | Some s -> s
        | None -> min_int)
      model.Cp.Model.starts
  in
  Cp.Search.run ~tie_break:options.Cp.Solver.tie_break ~restart:Cp.Restart.Off
    ~guide model
    {
      Cp.Search.fail_limit = options.Cp.Solver.fail_limit;
      node_limit = 0;
      wall_deadline = None;
      interrupt = None;
      tighten_bound = None;
      on_improve = None;
    }

type ref_result = {
  sol : Solution.t;
  moves : int;
  nodes : int;
  failures : int;
  stop : Obs.Solve_stats.stop_reason;
}

(* A cold solve past the exact-search limit, no time limit: the greedy
   seed, then moves relaxing the late jobs plus [lns_neighbors] random ones
   until the bound is met or [lns_max_stall] moves in a row fail to
   improve.  [global] is the Σ N_j a portfolio link reports as found
   elsewhere: every move must beat it as well as the incumbent. *)
let ref_lns ?(global = max_int) ~(options : Cp.Solver.options)
    (inst : Instance.t) =
  let lb = Cp.Solver.late_lower_bound inst in
  let seed =
    Cp.Solver.greedy_seed ~ordering:options.Cp.Solver.ordering inst
  in
  let rng = Simrand.Rng.create options.Cp.Solver.seed in
  let n_jobs = Array.length inst.Instance.jobs in
  let incumbent = ref seed and stall = ref 0 in
  let moves = ref 0 and nodes = ref 0 and failures = ref 0 in
  while
    !incumbent.Solution.late_jobs > lb
    && !stall < options.Cp.Solver.lns_max_stall
  do
    incr moves;
    let relax_set = Hashtbl.create 16 in
    Array.iteri
      (fun jdx (j : Instance.pending_job) ->
        if
          Solution.job_completion j !incumbent.Solution.starts
          > j.Instance.job.T.deadline
        then Hashtbl.replace relax_set jdx ())
      inst.Instance.jobs;
    for _ = 1 to options.Cp.Solver.lns_neighbors do
      Hashtbl.replace relax_set (Simrand.Rng.int rng n_jobs) ()
    done;
    let sub = ref_freeze_except inst !incumbent relax_set in
    let outcome =
      ref_move ~options sub
        ~bound_to_beat:(min !incumbent.Solution.late_jobs global)
        !incumbent
    in
    nodes := !nodes + outcome.Cp.Search.nodes;
    failures := !failures + outcome.Cp.Search.failures;
    match outcome.Cp.Search.best with
    | Some partial ->
        let merged = Hashtbl.copy !incumbent.Solution.starts in
        Hashtbl.iter (Hashtbl.replace merged) partial.Solution.starts;
        let merged = Solution.evaluate inst merged in
        if Solution.better merged !incumbent then begin
          incumbent := merged;
          stall := 0
        end
        else incr stall
    | None -> incr stall
  done;
  {
    sol = !incumbent;
    moves = !moves;
    nodes = !nodes;
    failures = !failures;
    stop =
      (if !incumbent.Solution.late_jobs <= lb then Obs.Solve_stats.Proved
       else Obs.Solve_stats.Lns_stall);
  }

(* --- helpers -------------------------------------------------------------- *)

let sorted_starts (sol : Solution.t) =
  List.sort compare
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sol.Solution.starts [])

let skipped (st : Cp.Solver.stats) =
  match st.Cp.Solver.metrics with
  | None -> Alcotest.fail "instrumented solve returned no metrics"
  | Some m ->
      Option.value ~default:0 (Obs.Metrics.find_counter m "lns/moves_skipped")

(* Same plan and stop reason as the reference, and every move the
   reference searched was either searched or skipped here. *)
let same_result (sol : Solution.t) (st : Cp.Solver.stats) expected =
  sorted_starts sol = sorted_starts expected.sol
  && sol.Solution.late_jobs = expected.sol.Solution.late_jobs
  && sol.Solution.total_tardiness = expected.sol.Solution.total_tardiness
  && st.Cp.Solver.stop_reason = expected.stop
  && st.Cp.Solver.lns_moves <= expected.moves
  && st.Cp.Solver.lns_moves + skipped st = expected.moves
  && st.Cp.Solver.nodes <= expected.nodes
  && st.Cp.Solver.failures <= expected.failures

(* Every pending task past the exact-search limit, wall-clock-free cutoffs. *)
let lns_options ~fail_limit ~stall ~neighbors ~seed =
  {
    Cp.Solver.default_options with
    Cp.Solver.exact_task_limit = 0;
    time_limit = infinity;
    fail_limit;
    lns_max_stall = stall;
    lns_neighbors = neighbors;
    seed;
    instrument = true;
  }

(* --- properties ---------------------------------------------------------- *)

(* Contended instances (short slack, narrow pools), so that most seeds sit
   above the lower bound and the LNS actually runs. *)
let contended =
  {
    Gen.n_jobs = (2, 5);
    n_maps = (1, 3);
    n_reduces = (0, 2);
    exec = (1, 20);
    est = (0, 10);
    slack = (0, 15);
    cap = (1, 2);
  }

let arb_case =
  QCheck.pair
    (Gen.arb_instance_of ~p:contended ())
    (QCheck.quad (QCheck.int_range 1 40) (QCheck.int_range 2 12)
       (QCheck.int_range 0 4) (QCheck.int_range 0 1000))

let prop_memo_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"LNS with skipped futile moves = rerun-every-move reference"
    arb_case (fun (inst, (fail_limit, stall, neighbors, seed)) ->
      let options = lns_options ~fail_limit ~stall ~neighbors ~seed in
      let expected = ref_lns ~options inst in
      let sol, st = Cp.Solver.solve ~options inst in
      same_result sol st expected)

(* A portfolio worker that is not isolated prunes against the best Σ N_j
   found anywhere — here a fixed foreign bound, which then is the bound in
   the memo's key whenever it sits below the incumbent's. *)
let prop_memo_matches_reference_linked =
  QCheck.Test.make ~count:1000
    ~name:"LNS skips = reference under a foreign bound (portfolio link)"
    (QCheck.pair arb_case (QCheck.int_range 0 3))
    (fun ((inst, (fail_limit, stall, neighbors, seed)), global) ->
      let options = lns_options ~fail_limit ~stall ~neighbors ~seed in
      let expected = ref_lns ~global ~options inst in
      let link =
        {
          Cp.Solver.null_link with
          Cp.Solver.global_bound = (fun () -> global);
          isolated = false;
        }
      in
      let sol, st = Cp.Solver.solve_linked ~options ~link inst in
      same_result sol st expected)

(* --- deterministic ------------------------------------------------------- *)

(* Two jobs of three 2-unit maps on two map slots, deadline 3: each alone
   needs 4 time units, so both are late in every schedule, but the wave
   bound (3) does not see it and the lower bound is 0.  Both jobs are late
   in the seed, so every move relaxes both — the same fragment against the
   same incumbent.  The first move searches it in vain; every later one is
   a skip. *)
let two_late_jobs () =
  Gen.reset_tasks ();
  Gen.instance ~map_cap:2 ~reduce_cap:1
    [
      Gen.mk_job ~id:0 ~deadline:3 ~maps:[ 2; 2; 2 ] ~reduces:[] ();
      Gen.mk_job ~id:1 ~deadline:3 ~maps:[ 2; 2; 2 ] ~reduces:[] ();
    ]

let test_two_jobs_one_move () =
  let inst = two_late_jobs () in
  let options = lns_options ~fail_limit:1_000 ~stall:12 ~neighbors:4 ~seed:3 in
  Alcotest.(check int) "lower bound" 0 (Cp.Solver.late_lower_bound inst);
  let sol, st = Cp.Solver.solve ~options inst in
  Alcotest.(check int) "seed late" 2 st.Cp.Solver.seed_late;
  Alcotest.(check int) "late" 2 sol.Solution.late_jobs;
  Alcotest.(check int) "searched moves" 1 st.Cp.Solver.lns_moves;
  Alcotest.(check int) "skipped moves" (options.Cp.Solver.lns_max_stall - 1)
    (skipped st);
  Alcotest.(check bool) "stopped on the stall limit" true
    (st.Cp.Solver.stop_reason = Obs.Solve_stats.Lns_stall);
  let expected = ref_lns ~options inst in
  Alcotest.(check int) "reference searches every move"
    options.Cp.Solver.lns_max_stall expected.moves;
  Alcotest.(check bool) "same plan as the reference" true
    (sorted_starts sol = sorted_starts expected.sol)

(* Under a restart policy the nogood database makes reruns differ, so no
   move is skipped. *)
let test_no_skip_under_nogoods () =
  let inst = two_late_jobs () in
  let options =
    {
      (lns_options ~fail_limit:1_000 ~stall:5 ~neighbors:4 ~seed:3) with
      Cp.Solver.restart = Cp.Restart.default;
    }
  in
  let _, st = Cp.Solver.solve ~options inst in
  Alcotest.(check int) "skipped moves" 0 (skipped st);
  Alcotest.(check int) "searched moves" 5 st.Cp.Solver.lns_moves

let () =
  Alcotest.run "lns"
    [
      ( "differential",
        List.map
          (QCheck_alcotest.to_alcotest ~verbose:false)
          [ prop_memo_matches_reference; prop_memo_matches_reference_linked ] );
      ( "deterministic",
        [
          Alcotest.test_case "two jobs, one searched move" `Quick
            test_two_jobs_one_move;
          Alcotest.test_case "no skips under nogoods" `Quick
            test_no_skip_under_nogoods;
        ] );
    ]
