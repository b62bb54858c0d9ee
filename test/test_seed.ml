(* Differential tests for the seeding layer.

   The greedy seed is the incumbent almost every invocation installs, so
   its speedups must be invisible: the deduplicated, early-exiting ordering
   race ({!Cp.Solver.greedy_seed}), the bulk-loaded fixed-task profiles
   ({!Sched.Profile.of_tasks}, used by every {!Sched.Greedy} pass), the
   congested run {!Sched.Profile.earliest_fit} remembers between calls and
   the flat-array plan check ({!Cp.Solver.candidate_feasible}) are each
   checked against the straightforward implementation they replace, kept
   here as the reference.  The instances go beyond [Gen]'s: fixed (running)
   tasks, capacity requirements above 1, deadlines shared by several jobs,
   and jobs doomed from the start.  Deterministic tests pin the [seed/*]
   counters and the session's LNS hand-over (one seed per pass, [elapsed]
   covering the whole pass). *)

module T = Mapreduce.Types
module Instance = Sched.Instance
module Solution = Sched.Solution
module Greedy = Sched.Greedy
module Profile = Sched.Profile

(* --- references: the per-task profile replay and the four-pass fold ------ *)

(* [Profile.earliest_fit] without the remembered congested run: every call
   walks the steps from [from], as the profile did before it kept a hint.
   It runs on a copy of the steps, so it never reads or sets the hint. *)
let ref_earliest_fit p ~from ~duration ~amount =
  if duration <= 0 || amount = 0 then from
  else begin
    let steps = Array.of_list (Profile.steps p) in
    let n = Array.length steps in
    let time k = fst steps.(k) and usage k = snd steps.(k) in
    let limit = Profile.capacity p - amount in
    let floor_index t =
      let res = ref (-1) in
      Array.iteri (fun k (x, _) -> if x <= t then res := k) steps;
      !res
    in
    let candidate = ref from in
    let i = ref (floor_index from + 1) in
    if !i > 0 && usage (!i - 1) > limit then begin
      while !i < n && usage !i > limit do
        incr i
      done;
      candidate := (if !i < n then time !i else time (n - 1));
      incr i
    end;
    let result = ref None in
    while !result = None do
      if !i >= n || time !i >= !candidate + duration then
        result := Some !candidate
      else if usage !i > limit then begin
        while !i < n && usage !i > limit do
          incr i
        done;
        candidate := (if !i < n then time !i else time (n - 1));
        incr i
      end
      else incr i
    done;
    Option.get !result
  end

let by_duration_desc (a : T.task) (b : T.task) =
  let c = compare b.T.exec_time a.T.exec_time in
  if c <> 0 then c else compare a.T.task_id b.T.task_id

(* One greedy pass with every fixed task added to the profiles one
   [Profile.add] at a time, and every placement found by a fresh walk. *)
let ref_schedule (inst : Instance.t) sequence =
  let map_profile = Profile.create ~capacity:inst.Instance.map_capacity in
  let reduce_profile = Profile.create ~capacity:inst.Instance.reduce_capacity in
  Array.iter
    (fun (j : Instance.pending_job) ->
      let occupy profile (f : Instance.fixed_task) =
        Profile.add profile ~start:f.Instance.start
          ~duration:f.Instance.task.T.exec_time
          ~amount:f.Instance.task.T.capacity_req
      in
      Array.iter (occupy map_profile) j.Instance.fixed_maps;
      Array.iter (occupy reduce_profile) j.Instance.fixed_reduces)
    inst.Instance.jobs;
  let starts = Hashtbl.create 256 in
  let place profile ~floor (task : T.task) =
    let start =
      ref_earliest_fit profile ~from:floor ~duration:task.T.exec_time
        ~amount:task.T.capacity_req
    in
    Profile.add profile ~start ~duration:task.T.exec_time
      ~amount:task.T.capacity_req;
    Hashtbl.replace starts task.T.task_id start;
    start + task.T.exec_time
  in
  Array.iter
    (fun idx ->
      let j = inst.Instance.jobs.(idx) in
      let maps = Array.copy j.Instance.pending_maps in
      Array.sort by_duration_desc maps;
      let lfmt = ref j.Instance.frozen_lfmt in
      Array.iter
        (fun task ->
          let finish = place map_profile ~floor:j.Instance.est task in
          if finish > !lfmt then lfmt := finish)
        maps;
      let reduces = Array.copy j.Instance.pending_reduces in
      Array.sort by_duration_desc reduces;
      let reduce_floor = max !lfmt j.Instance.est in
      Array.iter
        (fun task -> ignore (place reduce_profile ~floor:reduce_floor task))
        reduces)
    sequence;
  Solution.evaluate inst starts

let ref_doomed_last_sequence (inst : Instance.t) =
  let n = Array.length inst.Instance.jobs in
  let seq = Array.init n (fun i -> i) in
  let key i =
    let j = inst.Instance.jobs.(i) in
    let doomed = if Cp.Solver.job_doomed inst j then 1 else 0 in
    (doomed, j.Instance.job.T.deadline, j.Instance.job.T.id)
  in
  Array.sort (fun a b -> compare (key a) (key b)) seq;
  seq

(* Every ordering, then doomed-last, each pass run unconditionally. *)
let ref_greedy_seed ~ordering inst =
  let solve order = ref_schedule inst (Greedy.sequence order inst) in
  let best =
    List.fold_left
      (fun best order ->
        if order = ordering then best
        else
          let sol = solve order in
          if Solution.better sol best then sol else best)
      (solve ordering)
      [ Greedy.By_job_id; Greedy.Edf; Greedy.Least_laxity ]
  in
  let doomed_last = ref_schedule inst (ref_doomed_last_sequence inst) in
  if Solution.better doomed_last best then doomed_last else best

(* The event-list capacity sweep, tuples sorted by polymorphic compare. *)
let ref_candidate_feasible (inst : Instance.t) (sol : Solution.t) =
  let ok = ref true in
  let map_events = ref [] and reduce_events = ref [] in
  let push evs start (task : T.task) =
    evs :=
      (start, task.T.capacity_req)
      :: (start + task.T.exec_time, -task.T.capacity_req)
      :: !evs
  in
  Array.iter
    (fun (j : Instance.pending_job) ->
      Array.iter
        (fun (f : Instance.fixed_task) ->
          push map_events f.Instance.start f.Instance.task)
        j.Instance.fixed_maps;
      Array.iter
        (fun (f : Instance.fixed_task) ->
          push reduce_events f.Instance.start f.Instance.task)
        j.Instance.fixed_reduces;
      let lfmt = ref j.Instance.frozen_lfmt in
      Array.iter
        (fun (task : T.task) ->
          match Hashtbl.find_opt sol.Solution.starts task.T.task_id with
          | None -> ok := false
          | Some s ->
              if s < j.Instance.est then ok := false;
              if s + task.T.exec_time > !lfmt then
                lfmt := s + task.T.exec_time;
              push map_events s task)
        j.Instance.pending_maps;
      Array.iter
        (fun (task : T.task) ->
          match Hashtbl.find_opt sol.Solution.starts task.T.task_id with
          | None -> ok := false
          | Some s ->
              if s < !lfmt then ok := false;
              push reduce_events s task)
        j.Instance.pending_reduces)
    inst.Instance.jobs;
  let capacity_ok events capacity =
    let evs = Array.of_list !events in
    Array.sort
      (fun (t1, d1) (t2, d2) ->
        if t1 <> t2 then compare t1 t2 else compare d1 d2)
      evs;
    let load = ref 0 and fits = ref true in
    Array.iter
      (fun (_, delta) ->
        load := !load + delta;
        if !load > capacity then fits := false)
      evs;
    !fits
  in
  !ok
  && capacity_ok map_events inst.Instance.map_capacity
  && capacity_ok reduce_events inst.Instance.reduce_capacity

(* --- instances with fixed tasks, q > 1, shared deadlines and dooms ------- *)

let gen_rich_instance =
  let open QCheck.Gen in
  let* map_cap = int_range 1 4 in
  let* reduce_cap = int_range 1 4 in
  let* n_jobs = int_range 1 6 in
  let* shared_deadline = int_range 10 90 in
  let gen_job jdx =
    let next_id = ref (1000 + (100 * jdx)) in
    let task kind cap =
      let* e = int_range 1 20 in
      let* q = int_range 1 cap in
      incr next_id;
      return
        { T.task_id = !next_id; job_id = jdx; kind; exec_time = e;
          capacity_req = q }
    in
    let fixed kind cap est =
      let* t = task kind cap in
      let* start = int_range 0 est in
      return { Instance.task = t; start }
    in
    let* est = int_range 0 30 in
    let* pending_maps = array_size (int_range 1 4) (task T.Map_task map_cap) in
    let* pending_reduces =
      array_size (int_range 0 3) (task T.Reduce_task reduce_cap)
    in
    let* fixed_maps =
      array_size (int_range 0 2) (fixed T.Map_task (map_cap + 1) est)
    in
    let* fixed_reduces =
      array_size (int_range 0 1) (fixed T.Reduce_task (reduce_cap + 1) est)
    in
    let finish (f : Instance.fixed_task) = f.Instance.start + f.Instance.task.T.exec_time in
    let max_finish = Array.fold_left (fun acc f -> max acc (finish f)) 0 in
    let work =
      Array.fold_left (fun acc (t : T.task) -> acc + t.T.exec_time) 0
        (Array.append pending_maps pending_reduces)
    in
    let* deadline =
      frequency
        [
          (2, return shared_deadline);
          (2, map (fun slack -> est + (work / 2) + slack) (int_range 0 60));
          (1, return (est + 1));
        ]
    in
    let frozen_lfmt = max_finish fixed_maps in
    return
      {
        Instance.job =
          {
            T.id = jdx;
            arrival = 0;
            earliest_start = est;
            deadline;
            map_tasks =
              Array.append pending_maps
                (Array.map (fun (f : Instance.fixed_task) -> f.Instance.task) fixed_maps);
            reduce_tasks =
              Array.append pending_reduces
                (Array.map (fun (f : Instance.fixed_task) -> f.Instance.task)
                   fixed_reduces);
          };
        est;
        pending_maps;
        pending_reduces;
        fixed_maps;
        fixed_reduces;
        frozen_lfmt;
        frozen_completion = max frozen_lfmt (max_finish fixed_reduces);
      }
  in
  let* jobs = flatten_l (List.init n_jobs gen_job) in
  return
    {
      Instance.now = 0;
      map_capacity = map_cap;
      reduce_capacity = reduce_cap;
      jobs = Array.of_list jobs;
    }

let arb_rich = QCheck.make ~print:(Format.asprintf "%a" Instance.pp) gen_rich_instance

let sorted_starts (sol : Solution.t) =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sol.Solution.starts [])

let same_solution (a : Solution.t) (b : Solution.t) =
  a.Solution.late_jobs = b.Solution.late_jobs
  && a.Solution.total_tardiness = b.Solution.total_tardiness
  && sorted_starts a = sorted_starts b

let orders = [ Greedy.By_job_id; Greedy.Edf; Greedy.Least_laxity ]

(* --- differential properties ---------------------------------------------- *)

let prop_seed_matches_fold =
  QCheck.Test.make ~count:500 ~name:"greedy_seed = four-pass reference fold"
    (QCheck.pair arb_rich Gen.arb_instance)
    (fun (rich, plain) ->
      List.for_all
        (fun inst ->
          List.for_all
            (fun ordering ->
              let expected = ref_greedy_seed ~ordering inst in
              same_solution (Cp.Solver.greedy_seed ~ordering inst) expected
              && same_solution
                   (Cp.Solver.greedy_seed
                      ~preferred:(Greedy.solve ~order:ordering inst)
                      ~ordering inst)
                   expected)
            orders)
        [ rich; plain ])

let prop_pass_matches_replay =
  QCheck.Test.make ~count:500 ~name:"bulk-loaded pass = per-task replay"
    arb_rich (fun inst ->
      List.for_all
        (fun order ->
          same_solution (Greedy.solve ~order inst)
            (ref_schedule inst (Greedy.sequence order inst)))
        orders
      &&
      let seq = ref_doomed_last_sequence inst in
      same_solution (Greedy.solve_with_sequence inst seq) (ref_schedule inst seq))

(* Boundaries from a narrow range so many coincide; zero durations and zero
   amounts occupy nothing but must not leave boundaries behind either. *)
let arb_tasks =
  let open QCheck in
  pair (int_range 1 5)
    (small_list (triple (int_range 0 12) (int_range 0 5) (int_range 0 3)))

let prop_bulk_profile =
  QCheck.Test.make ~count:2000 ~name:"Profile.of_tasks = incremental adds"
    arb_tasks (fun (capacity, tasks) ->
      let incremental = Profile.create ~capacity in
      List.iter
        (fun (start, duration, amount) ->
          Profile.add incremental ~start ~duration ~amount)
        tasks;
      let bulk =
        Profile.of_tasks ~capacity (fun emit ->
            List.iter
              (fun (start, duration, amount) -> emit ~start ~duration ~amount)
              tasks)
      in
      let queries_agree =
        List.for_all
          (fun (from, duration, amount) ->
            let amount = min amount capacity in
            Profile.earliest_fit bulk ~from ~duration ~amount
            = Profile.earliest_fit incremental ~from ~duration ~amount
            && Profile.fits bulk ~start:from ~duration ~amount
               = Profile.fits incremental ~start:from ~duration ~amount)
          tasks
      in
      Profile.steps bulk = Profile.steps incremental
      && Profile.max_usage bulk = Profile.max_usage incremental
      && queries_agree
      &&
      (* the bulk profile keeps accepting adds like any other *)
      (Profile.add bulk ~start:3 ~duration:4 ~amount:1;
       Profile.add incremental ~start:3 ~duration:4 ~amount:1;
       Profile.steps bulk = Profile.steps incremental))

(* Operation sequences for the remembered congested run.  [from] values come
   from a pool of three, so most queries repeat an earlier [from] — as a
   greedy pass does for all of a job's maps; a [Place] adds the task where
   the query put it, growing the very run the profile remembered. *)
type op =
  | Place of int * int * int  (** from index, duration, amount *)
  | Query of int * int * int
  | Add of int * int * int  (** start, duration, amount *)
  | Remove of int  (** the k-th earlier [Add] or [Place], if still held *)

let pp_op = function
  | Place (f, d, a) -> Printf.sprintf "Place(from#%d,%d,%d)" f d a
  | Query (f, d, a) -> Printf.sprintf "Query(from#%d,%d,%d)" f d a
  | Add (s, d, a) -> Printf.sprintf "Add(%d,%d,%d)" s d a
  | Remove k -> Printf.sprintf "Remove(%d)" k

type hint_case = {
  capacity : int;
  froms : int array;
  initial : (int * int * int) list;  (** bulk-loaded with [of_tasks] *)
  bulk : bool;
  ops : op list;
}

let gen_hint_case =
  let open QCheck.Gen in
  let* capacity = int_range 1 4 in
  let* froms = array_repeat 3 (int_range 0 20) in
  let* bulk = bool in
  let* initial =
    list_size (int_range 0 8)
      (triple (int_range 0 30) (int_range 0 10) (int_range 1 capacity))
  in
  let amount = int_range 1 capacity and duration = int_range 0 8 in
  let* ops =
    list_size (int_range 1 40)
      (frequency
         [
           ( 5,
             map3 (fun f d a -> Place (f, d, a)) (int_range 0 2) duration amount
           );
           ( 2,
             map3 (fun f d a -> Query (f, d, a)) (int_range 0 2) duration amount
           );
           ( 2,
             map3 (fun s d a -> Add (s, d, a)) (int_range 0 30) duration amount
           );
           (2, map (fun k -> Remove k) (int_range 0 40));
         ])
  in
  return { capacity; froms; initial; bulk; ops }

let print_hint_case c =
  Printf.sprintf "capacity=%d froms=[%s] %s=[%s] ops=[%s]" c.capacity
    (String.concat ";" (Array.to_list (Array.map string_of_int c.froms)))
    (if c.bulk then "of_tasks" else "adds")
    (String.concat ";"
       (List.map
          (fun (s, d, a) -> Printf.sprintf "(%d,%d,%d)" s d a)
          c.initial))
    (String.concat "; " (List.map pp_op c.ops))

let arb_hint_case =
  QCheck.make ~print:print_hint_case
    ~shrink:(fun c yield ->
      QCheck.Shrink.list ~shrink:QCheck.Shrink.nil c.ops (fun ops ->
          yield { c with ops }))
    gen_hint_case

let prop_earliest_fit_hint =
  QCheck.Test.make ~count:3000
    ~name:"earliest_fit with remembered run = fresh walk"
    arb_hint_case (fun c ->
      let p =
        if c.bulk then
          Profile.of_tasks ~capacity:c.capacity (fun emit ->
              List.iter
                (fun (start, duration, amount) -> emit ~start ~duration ~amount)
                c.initial)
        else begin
          let p = Profile.create ~capacity:c.capacity in
          List.iter
            (fun (start, duration, amount) ->
              Profile.add p ~start ~duration ~amount)
            c.initial;
          p
        end
      in
      let held = ref [] in
      let agree f d a =
        let from = c.froms.(f) in
        let got = Profile.earliest_fit p ~from ~duration:d ~amount:a in
        (got = ref_earliest_fit p ~from ~duration:d ~amount:a, got)
      in
      List.for_all
        (fun op ->
          match op with
          | Query (f, d, a) -> fst (agree f d a)
          | Place (f, d, a) ->
              let ok, start = agree f d a in
              Profile.add p ~start ~duration:d ~amount:a;
              held := !held @ [ Some (start, d, a) ];
              ok
          | Add (start, d, a) ->
              Profile.add p ~start ~duration:d ~amount:a;
              held := !held @ [ Some (start, d, a) ];
              true
          | Remove k ->
              (match List.nth_opt !held k with
              | Some (Some (start, duration, amount)) ->
                  Profile.remove p ~start ~duration ~amount;
                  held := List.mapi (fun i h -> if i = k then None else h) !held
              | Some None | None -> ());
              true)
        c.ops)

let test_bulk_profile_rejects_negative () =
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative duration" true
    (raises (fun () ->
         Profile.of_tasks ~capacity:2 (fun emit ->
             emit ~start:0 ~duration:(-1) ~amount:1)));
  Alcotest.(check bool) "negative amount" true
    (raises (fun () ->
         Profile.of_tasks ~capacity:2 (fun emit ->
             emit ~start:0 ~duration:1 ~amount:(-1))))

(* A plan perturbed into (usually) infeasibility: one pending task moved by
   a small offset (est and precedence breaks, overlaps), two tasks stacked
   on one start (capacity breaks), or a start dropped (incompleteness). *)
let perturb (inst : Instance.t) (sol : Solution.t) (kind, pick, delta) =
  let starts = Hashtbl.copy sol.Solution.starts in
  let ids =
    Array.to_list inst.Instance.jobs
    |> List.concat_map (fun (j : Instance.pending_job) ->
           Array.to_list
             (Array.append j.Instance.pending_maps j.Instance.pending_reduces))
    |> List.map (fun (t : T.task) -> t.T.task_id)
    |> Array.of_list
  in
  let n = Array.length ids in
  let id k = ids.(k mod n) in
  (match kind with
  | 0 -> ()
  | 1 -> Hashtbl.replace starts (id pick) (Hashtbl.find starts (id pick) + delta)
  | 2 ->
      Hashtbl.replace starts (id (pick + 1)) (Hashtbl.find starts (id pick))
  | _ -> Hashtbl.remove starts (id pick));
  { Solution.starts; late_jobs = 0; total_tardiness = 0 }

let prop_candidate_feasible =
  QCheck.Test.make ~count:1000
    ~name:"candidate_feasible = event-list sweep (feasible and perturbed)"
    (QCheck.pair arb_rich
       (QCheck.triple (QCheck.int_range 0 3) (QCheck.int_range 0 50)
          (QCheck.int_range (-12) 12)))
    (fun (inst, perturbation) ->
      let plan = perturb inst (Greedy.solve inst) perturbation in
      Cp.Solver.candidate_feasible inst plan = ref_candidate_feasible inst plan)

(* --- deterministic counter and hand-over tests ------------------------------ *)

let counter (st : Cp.Solver.stats) name =
  match st.Cp.Solver.metrics with
  | None -> Alcotest.fail "instrumented solve returned no metrics"
  | Some m -> Option.value ~default:0 (Obs.Metrics.find_counter m name)

let instrumented = { Cp.Solver.default_options with instrument = true }

let test_one_job_one_pass () =
  List.iter
    (fun (label, deadline) ->
      Gen.reset_tasks ();
      let inst =
        Gen.instance
          [ Gen.mk_job ~id:1 ~deadline ~maps:[ 5; 7; 3 ] ~reduces:[ 4 ] () ]
      in
      let _, st = Cp.Solver.solve ~options:instrumented inst in
      Alcotest.(check int) (label ^ ": greedy passes") 1
        (counter st "seed/greedy_passes");
      Alcotest.(check int) (label ^ ": orders skipped") 3
        (counter st "seed/orders_skipped"))
    [ ("on time", 100); ("late", 5) ]

(* Past the exact-search limit, with more late jobs than the bound: the
   session hands the pass to LNS. *)
let lns_instance ~jobs ~maps =
  Gen.reset_tasks ();
  Gen.instance ~map_cap:2 ~reduce_cap:1
    (List.init jobs (fun i ->
         Gen.mk_job ~id:i
           ~deadline:(40 + (3 * i))
           ~maps:(List.init maps (fun k -> 6 + ((i + k) mod 5)))
           ~reduces:[ 4 + (i mod 3) ]
           ()))

let lns_options =
  {
    instrumented with
    Cp.Solver.fail_limit = 30;
    lns_max_stall = 2;
    time_limit = 60.;
  }

let test_lns_session_seeds_once () =
  let inst = lns_instance ~jobs:40 ~maps:3 in
  Alcotest.(check bool) "past the exact-search limit" true
    (Instance.pending_task_count inst > lns_options.Cp.Solver.exact_task_limit);
  let registry = Obs.Metrics.create () in
  let seed =
    Cp.Solver.greedy_seed ~registry ~ordering:lns_options.Cp.Solver.ordering
      inst
  in
  let one_seed =
    Option.get
      (Obs.Metrics.find_counter (Obs.Metrics.snapshot registry)
         "seed/greedy_passes")
  in
  Alcotest.(check bool) "seed above the bound" true
    (seed.Solution.late_jobs > Cp.Solver.late_lower_bound inst);
  let session = Cp.Session.create () in
  let _, st = Cp.Session.solve session ~options:lns_options inst in
  Alcotest.(check bool) "LNS ran" true (st.Cp.Solver.lns_moves > 0);
  Alcotest.(check int) "session seed passes = one seed" one_seed
    (counter st "seed/greedy_passes");
  Alcotest.(check int) "seed late reported" seed.Solution.late_jobs
    st.Cp.Solver.seed_late

(* The session's bound and seed happen before the hand-over to LNS; the
   reported [elapsed] must still cover them.  The instance is large enough,
   and the LNS short enough, that seeding is a large share of the pass: an
   [elapsed] that left it out would fall short of the wall time by about
   one seeding, where the allowance below is half of one. *)
let test_lns_elapsed_covers_pass () =
  let inst = lns_instance ~jobs:300 ~maps:8 in
  let options =
    { lns_options with Cp.Solver.instrument = false; fail_limit = 1;
      lns_max_stall = 1 }
  in
  let t_seed = Obs.Clock.now () in
  ignore (Cp.Solver.starting_incumbent ~options inst);
  let seeding = Obs.Clock.now () -. t_seed in
  let session = Cp.Session.create () in
  let t0 = Obs.Clock.now () in
  let _, st = Cp.Session.solve session ~options inst in
  let wall = Obs.Clock.now () -. t0 in
  Alcotest.(check bool) "LNS ran" true (st.Cp.Solver.lns_moves > 0);
  Alcotest.(check bool)
    (Printf.sprintf "elapsed %.4f s within wall %.4f s (seeding %.4f s)"
       st.Cp.Solver.elapsed wall seeding)
    true
    (st.Cp.Solver.elapsed <= wall
    && wall -. st.Cp.Solver.elapsed <= 0.5 *. seeding)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "seed"
    [
      ( "differential",
        qsuite
          [
            prop_seed_matches_fold;
            prop_pass_matches_replay;
            prop_bulk_profile;
            prop_earliest_fit_hint;
            prop_candidate_feasible;
          ] );
      ( "deterministic",
        [
          Alcotest.test_case "bulk profile rejects negatives" `Quick
            test_bulk_profile_rejects_negative;
          Alcotest.test_case "one job, one greedy pass" `Quick
            test_one_job_one_pass;
          Alcotest.test_case "LNS-regime session seeds once" `Quick
            test_lns_session_seeds_once;
          Alcotest.test_case "LNS-regime elapsed covers the pass" `Quick
            test_lns_elapsed_covers_pass;
        ] );
    ]
