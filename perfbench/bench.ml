(* End-to-end and per-layer benchmark of MRCP-RM.

   One invocation runs one workload for a fixed amount of work (derived from
   --seconds) and prints, as the last line of stdout, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
   are the end-to-end set of BENCHMARK.json; with --trace 1 the run is made a
   second time with solver instrumentation and spans on, and the metrics are
   the per-layer set.  See perfbench/README.md for the workloads and the
   meaning of every metric.

   The benchmark drives the library only through its public API: the
   streams go through Opensim.Simulator.run with a timing wrapper around
   Opensim.Driver.of_mrcp, and fb-paper's traced run also calls the layer
   functions (Cp.Solver, Sched.Greedy, Mrcp.Matchmaker) one at a time on
   closed-batch open sets. *)

module T = Mapreduce.Types
module Sim = Opensim.Simulator

(* The CLI's per-pass budget, and the latency limit a pass may reach. *)
let budget_s = 0.2
let overrun_s = 1.5 *. budget_s
let clock = Obs.Clock.now

(* ---------------------------------------------------------------- stats *)

let sum = List.fold_left ( +. ) 0.
let sumi = List.fold_left ( + ) 0
let ratio a b = if b = 0. then 0. else a /. b
let ratioi a b = ratio (float_of_int a) (float_of_int b)

(* Nearest-rank quantile, ceil(q·n), the convention of Report.Audit. *)
let quantile q = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let k = int_of_float (ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (k - 1)))

let median = quantile 0.5

let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec find () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
            (fun kb -> float_of_int kb /. 1024.)
      | _ -> find ()
    in
    find ()
  in
  try from_proc ()
  with _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* ---------------------------------------------------------------- spans *)

(* Spans are recorded from this file only, around the calls into each layer,
   and kept in memory until the run ends.  [req] identifies the unit of work
   (sub-stream or ladder repetition) a span belongs to. *)
type span = {
  id : int;
  parent : int;
  name : string;
  req : int;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_span = ref (-1)
let request = ref 0

(* Run [f], returning its result and its wall time; record a span when
   tracing. *)
let timed name f =
  if not !tracing then begin
    let t0 = clock () in
    let v = f () in
    (v, clock () -. t0)
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !open_span in
    open_span := id;
    let t0 = clock () in
    let close () =
      let t1 = clock () in
      open_span := parent;
      spans := { id; parent; name; req = !request; t0; t1 } :: !spans;
      t1 -. t0
    in
    match f () with
    | v -> (v, close ())
    | exception e ->
        ignore (close ());
        raise e
  end

(* Per span name: (count, total seconds, self seconds).  Self time is the
   duration minus the time covered by child spans. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let cur = Option.value (Hashtbl.find_opt children s.parent) ~default:0. in
      Hashtbl.replace children s.parent (cur +. (s.t1 -. s.t0)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value (Hashtbl.find_opt children s.id) ~default:0. in
      let n, tot, sf =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace by_name s.name (n + 1, tot +. d, sf +. self))
    spans;
  by_name

let write_spans path spans =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let us x = Obs.Json.Float ((x -. origin) *. 1e6) in
  let event s =
    Obs.Json.Obj
      [
        ("name", Obs.Json.String s.name);
        ("ph", Obs.Json.String "X");
        ("ts", us s.t0);
        ("dur", Obs.Json.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", Obs.Json.Int 1);
        ("tid", Obs.Json.Int 1);
        ( "args",
          Obs.Json.Obj
            [
              ("id", Obs.Json.Int s.id);
              ("parent", Obs.Json.Int s.parent);
              ("req", Obs.Json.Int s.req);
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("traceEvents", Obs.Json.List (List.rev_map event spans)) ]));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------ workloads *)

type size = Full | Tiny

type stream = {
  jobs_per_stream : int;
  streams_per_10s : int;  (** sub-streams run per 10 s of --seconds *)
  make : seed:int -> T.resource array * T.job list;
  chaos : Opensim.Chaos.config option;
  journal : bool;
  ladder : bool;  (** the traced run also times the layer ladder *)
}

let facebook ~lambda ~n ~seed =
  let cluster = Mapreduce.Facebook.cluster () in
  let params = { Mapreduce.Facebook.default with n_jobs = n; lambda } in
  (cluster, Mapreduce.Facebook.generate params ~cluster ~seed)

(* A Facebook stream that holds the Table-4 class mix exactly (n must be a
   multiple of 50).  Jobs come from the library generator's stream in order,
   each kept while its class quota n·count/1000 has room, and the k-th kept
   job moves to the stream's k-th arrival, its deadline moving with it.
   Random class draws make the number of 2400- and 4800-map jobs in a short
   stream, and with it the run's cost, vary several-fold between seeds. *)
let facebook_mix ~lambda ~n ~seed =
  let classes = Mapreduce.Facebook.job_classes in
  let class_of (j : T.job) =
    let rec find i =
      let c = classes.(i) in
      if c.maps = Array.length j.map_tasks && c.reduces = Array.length j.reduce_tasks
      then i
      else find (i + 1)
    in
    find 0
  in
  let rec draw pool =
    let cluster, jobs = facebook ~lambda ~n:pool ~seed in
    let left = Array.map (fun (c : Mapreduce.Facebook.job_class) -> n * c.count / 1000) classes in
    let kept =
      List.filter
        (fun j ->
          let c = class_of j in
          left.(c) > 0 && (left.(c) <- left.(c) - 1; true))
        jobs
    in
    if List.length kept = n then (cluster, jobs, kept) else draw (2 * pool)
  in
  let cluster, stream, kept = draw (4 * n) in
  let arrivals = List.filteri (fun i _ -> i < n) stream in
  ( cluster,
    List.map2
      (fun (slot : T.job) (j : T.job) ->
        let shift = slot.arrival - j.arrival in
        { j with arrival = slot.arrival; earliest_start = j.earliest_start + shift;
          deadline = j.deadline + shift })
      arrivals kept )

let synthetic ~n ~seed =
  let cluster = T.uniform_cluster ~m:50 ~map_capacity:2 ~reduce_capacity:2 in
  let params = { Mapreduce.Synthetic.default with n_jobs = n } in
  (cluster, Mapreduce.Synthetic.generate params ~cluster ~seed)

let chaos =
  {
    Opensim.Chaos.default with
    crash_rate = 4e-6;
    straggler_p = 0.02;
    straggler_factor = (1.5, 3.0);
    task_failure_p = 0.01;
  }

let fb_paper_lambda = 3e-4
let fb_stress_lambda = 3e-3

let stream_of name size =
  let n full tiny = match size with Full -> full | Tiny -> tiny in
  match name with
  | "fb-paper" ->
      let jobs_per_stream = n 250 50 in
      Some
        {
          jobs_per_stream;
          streams_per_10s = 4;
          make = facebook_mix ~lambda:fb_paper_lambda ~n:jobs_per_stream;
          chaos = None;
          journal = false;
          ladder = true;
        }
  | "synth-chaos" ->
      let jobs_per_stream = n 250 12 in
      Some
        {
          jobs_per_stream;
          streams_per_10s = 8;
          make = synthetic ~n:jobs_per_stream;
          chaos = Some chaos;
          journal = true;
          ladder = false;
        }
  | _ -> None

(* ------------------------------------------------------------- streams *)

(* Everything the timing wrapper and the per-pass stats read, pooled over
   the sub-streams of one run. *)
type acc = {
  mutable submit_s : float;
  mutable invoke_s : float;  (** every react call, passes and no-ops *)
  mutable notify_s : float;  (** fault notifications (synth-chaos only) *)
  mutable pass_s : float list;  (** react calls that ran a pass *)
  mutable noop_reacts : int;
  mutable noop_s : float;  (** react calls that found nothing to do *)
  mutable solve_s : float;  (** Σ solver-reported [elapsed] *)
  mutable nodes : int;
  mutable failures : int;
  mutable lns_moves : int;
  mutable seed_at_bound : int;
  stops : (string, int) Hashtbl.t;
}

let new_acc () =
  {
    submit_s = 0.;
    invoke_s = 0.;
    notify_s = 0.;
    pass_s = [];
    noop_reacts = 0;
    noop_s = 0.;
    solve_s = 0.;
    nodes = 0;
    failures = 0;
    lns_moves = 0;
    seed_at_bound = 0;
    stops = Hashtbl.create 8;
  }

let record_pass acc dt (st : Cp.Solver.stats) =
  acc.pass_s <- dt :: acc.pass_s;
  acc.solve_s <- acc.solve_s +. st.elapsed;
  acc.nodes <- acc.nodes + st.nodes;
  acc.failures <- acc.failures + st.failures;
  acc.lns_moves <- acc.lns_moves + st.lns_moves;
  if st.seed_late <= st.lower_bound then
    acc.seed_at_bound <- acc.seed_at_bound + 1;
  let reason = Obs.Solve_stats.stop_reason_to_string st.stop_reason in
  Hashtbl.replace acc.stops reason
    (1 + Option.value (Hashtbl.find_opt acc.stops reason) ~default:0)

(* The driver as users get it, with every callback timed from outside. *)
let wrap acc mgr (d : Opensim.Driver.t) =
  let notify f =
    let (), dt = timed "manager.notify" f in
    acc.notify_s <- acc.notify_s +. dt
  in
  {
    d with
    submit =
      (fun ~now job ->
        let (), dt = timed "manager.submit" (fun () -> d.submit ~now job) in
        acc.submit_s <- acc.submit_s +. dt);
    react =
      (fun ~now ->
        let passes = Mrcp.Manager.solve_count mgr in
        let r, dt = timed "manager.invoke" (fun () -> d.react ~now) in
        acc.invoke_s <- acc.invoke_s +. dt;
        (match Mrcp.Manager.last_solver_stats mgr with
        | Some st when Mrcp.Manager.solve_count mgr > passes ->
            record_pass acc dt st
        | _ ->
            acc.noop_reacts <- acc.noop_reacts + 1;
            acc.noop_s <- acc.noop_s +. dt);
        r);
    task_completed =
      (fun ~now ~task_id -> notify (fun () -> d.task_completed ~now ~task_id));
    task_started =
      (fun ~now ~task_id ~exec_ms ->
        notify (fun () -> d.task_started ~now ~task_id ~exec_ms));
    task_attempt_failed =
      (fun ~now ~task_id ->
        notify (fun () -> d.task_attempt_failed ~now ~task_id));
    resource_lost =
      (fun ~now ~resource_id ~lost ->
        notify (fun () -> d.resource_lost ~now ~resource_id ~lost));
    resource_rejoined =
      (fun ~now ~resource_id ->
        notify (fun () -> d.resource_rejoined ~now ~resource_id));
  }

(* What a run keeps of a sub-stream.  The simulator's results hold every job
   and task; keeping them for the whole run would grow the heap the later
   sub-streams are measured on. *)
type stream_run = {
  setup_s : float;
  run_s : float;
  jobs : int;
  late : int;
  o_per_job_s : float;  (** the paper's O for this sub-stream *)
  turnaround_sum_s : float;
  passes : int;
  events : int;
  solver_metrics : Obs.Metrics.snapshot option;
  cache_hits : int;
  journal_events : int;
  journal_bytes : int;  (** 0 unless the run was instrumented *)
}

exception Check_failed of string

let check cond msg = if not cond then raise (Check_failed msg)

let audit_journal j =
  match Report.Audit.of_string (Obs.Journal.to_string j) with
  | Error e -> raise (Check_failed ("journal does not parse: " ^ e))
  | Ok r ->
      List.iter
        (fun (c : Report.Audit.check) ->
          check c.ok
            (Printf.sprintf "journal audit %s: expected %s, got %s" c.name
               c.expected c.actual))
        r.Report.Audit.checks

(* One sub-stream: set up (generation, chaos plan, manager creation), then
   Simulator.run.  [validate] turns on the manager's Table-1 oracle, the
   simulator's execution checks and the journal audit. *)
let run_stream ?(validate = false) ?(instrument = false) acc spec ~seed =
  let t0 = clock () in
  let cluster, jobs = spec.make ~seed in
  let plan =
    match spec.chaos with
    | None -> Opensim.Chaos.no_faults
    | Some c -> Opensim.Chaos.materialize c ~cluster ~jobs ~seed:(seed + 61)
  in
  let journal = if spec.journal then Some (Obs.Journal.create ()) else None in
  let solver =
    { Cp.Solver.default_options with time_limit = budget_s; seed; instrument }
  in
  let mgr =
    Mrcp.Manager.create ~cluster
      { Mrcp.Manager.default_config with solver; validate; journal }
  in
  let driver = wrap acc mgr (Opensim.Driver.of_mrcp mgr) in
  let setup_s = clock () -. t0 in
  let res, run_s =
    timed "sim.run" (fun () ->
        Sim.run ~validate ?journal ~cluster ~chaos:plan ~driver ~jobs ())
  in
  (* cheap output checks, made on every sub-stream *)
  let n = List.length jobs in
  check (res.Sim.jobs_total = n) "a job never completed";
  check (List.length res.Sim.outcomes = n) "outcome count differs from jobs";
  List.iter
    (fun (o : Sim.job_outcome) ->
      check
        (o.completion >= o.job.T.earliest_start
        && o.late = (o.completion > o.job.T.deadline))
        (Printf.sprintf "job %d: bad completion or lateness" o.job.T.id))
    res.Sim.outcomes;
  if validate then Option.iter audit_journal journal;
  {
    setup_s;
    run_s;
    jobs = res.Sim.jobs_total;
    late = res.Sim.n_late;
    o_per_job_s = res.Sim.overhead_per_job_s;
    turnaround_sum_s = res.Sim.avg_turnaround_s *. float_of_int res.Sim.jobs_total;
    passes = res.Sim.solves;
    events = res.Sim.events_executed;
    solver_metrics = res.Sim.metrics;
    cache_hits = Mrcp.Manager.cache_hit_count mgr;
    journal_events = Option.fold ~none:0 ~some:Obs.Journal.events journal;
    journal_bytes =
      (match journal with
      | Some j when instrument -> String.length (Obs.Journal.to_string j)
      | _ -> 0);
  }

(* ------------------------------------------------------------- snapshot *)

(* The layer ladder: closed-batch open sets cut from a Facebook stream at the
   stress rate.  A rung is the first window of consecutive jobs holding
   between 100% and 110% of its task target and within 15% of its job
   target, so both sizes repeat from seed to seed.  The window is presented
   as one burst: every job arrives at the window's first arrival and keeps
   its own SLA window d_j − s_j.  The large rungs hold about the Table-4
   mean of 234 tasks per job; the searched rung holds many small jobs, so
   the burst makes some of them late and LNS has work.  Search on the large
   rungs runs for seconds to minutes (see README.md). *)
let rung_targets = function
  | Full ->
      [ ("r1k", 1000, 20, true); ("r6k", 6000, 26, false); ("r24k", 24000, 100, false) ]
  | Tiny -> [ ("r1k", 100, 6, true); ("r6k", 300, 2, false) ]

let rung_names = [ "r1k"; "r6k"; "r24k" ]

type rung = {
  label : string;
  inst : Sched.Instance.t;
  cluster : T.resource array;
  searched : bool;
}

let cut_rungs size ~seed =
  let cluster, jobs = facebook ~lambda:fb_stress_lambda ~n:1500 ~seed in
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let window target want =
    let tolerance = max 1 (want * 15 / 100) in
    let rec from start =
      if start >= n then failwith "no window fits the rung sizes"
      else begin
        let stop = ref start and tasks = ref 0 in
        while !tasks < target && !stop < n do
          tasks := !tasks + T.task_count jobs.(!stop);
          incr stop
        done;
        if !tasks >= target
           && 10 * !tasks <= 11 * target
           && abs (!stop - start - want) <= tolerance
        then Array.to_list (Array.sub jobs start (!stop - start))
        else from (start + 1)
      end
    in
    from 0
  in
  List.map
    (fun (label, target, want, searched) ->
      let window = window target want in
      let now = (List.hd window).T.arrival in
      let burst =
        List.map
          (fun (j : T.job) ->
            { j with arrival = now; earliest_start = now;
              deadline = now + j.deadline - j.earliest_start })
          window
      in
      let inst =
        Sched.Instance.of_fresh_jobs ~now
          ~map_capacity:(T.total_map_slots cluster)
          ~reduce_capacity:(T.total_reduce_slots cluster)
          burst
      in
      { label; inst; cluster; searched })
    (rung_targets size)

(* The solver's own pipeline (rungs are far above the exact-search limit,
   so it runs LNS) with wall-clock-free cutoffs: a failure limit per move
   and a stall limit, so its counts are a pure function of the instance. *)
let search_options ~instrument =
  {
    Cp.Solver.default_options with
    fail_limit = 50;
    lns_max_stall = 2;
    time_limit = infinity;
    instrument;
  }

type rung_run = {
  r_label : string;
  tasks : int;
  jobs : int;
  bound_s : float;
  greedy_s : float;
  seed_s : float;
  match_s : float;
  search_s : float;
  pass_s : float;
  counts : int * int * int * int;
      (** seed late jobs, search nodes, failures, searched late jobs *)
  solver_metrics : Obs.Metrics.snapshot option;
}

let run_rung ~instrument r =
  let inst = r.inst in
  let pending =
    Array.fold_left
      (fun acc (pj : Sched.Instance.pending_job) ->
        Array.to_list pj.pending_maps @ Array.to_list pj.pending_reduces @ acc)
      [] inst.jobs
  in
  let t0 = clock () in
  let lb, bound_s = timed "bound" (fun () -> Cp.Solver.late_lower_bound inst) in
  let _, greedy_s = timed "greedy" (fun () -> Sched.Greedy.solve inst) in
  let seed, seed_s =
    timed "seed" (fun () -> Cp.Solver.greedy_seed ~ordering:Sched.Greedy.Edf inst)
  in
  let _, match_s =
    timed "matchmaker" (fun () ->
        Mrcp.Matchmaker.assign_all
          (Mrcp.Matchmaker.create ~cluster:r.cluster)
          ~starts:seed.Sched.Solution.starts ~pending)
  in
  let sol, st, search_s =
    if r.searched then
      let (sol, st), dt =
        timed "search" (fun () ->
            Cp.Solver.solve ~options:(search_options ~instrument) inst)
      in
      (sol, Some st, dt)
    else (seed, None, 0.)
  in
  let pass_s = clock () -. t0 in
  (* untimed correctness: Table-1 oracle on both plans *)
  List.iter
    (fun (what, s) ->
      match Sched.Solution.feasibility_errors inst s with
      | [] -> ()
      | e :: _ -> raise (Check_failed (r.label ^ " " ^ what ^ ": " ^ e)))
    [ ("seed", seed); ("search", sol) ];
  check (lb <= sol.Sched.Solution.late_jobs) (r.label ^ ": bound above plan");
  {
    r_label = r.label;
    tasks = Sched.Instance.pending_task_count inst;
    jobs = Array.length inst.jobs;
    bound_s;
    greedy_s;
    seed_s;
    match_s;
    search_s;
    pass_s;
    counts =
      (match st with
      | Some st -> (seed.late_jobs, st.nodes, st.failures, sol.late_jobs)
      | None -> (seed.late_jobs, 0, 0, sol.late_jobs));
    solver_metrics = Option.bind st (fun st -> st.metrics);
  }

(* Recorded deterministic counts per seed (perfbench/expected_counts.txt):
   lines "SEED RUNG SEED_LATE NODES FAILURES LATE". *)
let expected_counts path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec read acc =
      match input_line ic with
      | line -> (
          match Scanf.sscanf line " %d %s %d %d %d %d" (fun s r a b c d -> (s, r, (a, b, c, d))) with
          | entry -> read (entry :: acc)
          | exception _ -> read acc)
      | exception End_of_file -> acc
    in
    let entries = read [] in
    close_in ic;
    entries
  end

(* -------------------------------------------------------------- output *)

type metric = string * float * string

let result_line ~attempted ~failed (metrics : metric list) =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool (failed = 0));
         ("attempted", Obs.Json.Int attempted);
         ("failed", Obs.Json.Int failed);
         ( "metrics",
           Obs.Json.Obj
             (List.map
                (fun (name, value, unit) ->
                  ( name,
                    Obs.Json.Obj
                      [
                        ("value", Obs.Json.Float value);
                        ("unit", Obs.Json.String unit);
                      ] ))
                metrics) );
       ])

let prop_names =
  [
    "cumulative";
    "cumulative_gated";
    "disjunctive";
    "ge_offset";
    "max_of";
    "lateness";
    "sum_lt_bound";
  ]

let stop_names =
  List.map Obs.Solve_stats.stop_reason_to_string Obs.Solve_stats.all_stop_reasons

(* Every metric the benchmark prints, with its unit; BENCHMARK.json declares
   the same names.  A workload prints 0 for a per-layer metric of a layer it
   does not run (synth-chaos has no ladder, fb-paper no journal). *)
let end_to_end_schema =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("o_mean_ms", "ms/job");
    ("invoke_p95_ms", "ms");
    ("turnaround_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer_schema =
  [
    ("sim.self_ms", "ms");
    ("sim.share", "ratio");
    ("sim.events", "count");
    ("sim.ns_per_event", "ns");
    ("manager.submit_ms", "ms");
    ("manager.submit_share", "ratio");
    ("manager.invoke_ms", "ms");
    ("manager.invoke_share", "ratio");
    ("manager.notify_ms", "ms");
    ("manager.passes", "count");
    ("manager.noop_reacts", "count");
    ("manager.noop_ms", "ms");
    ("manager.cache_hit_ratio", "ratio");
    ("manager.outside_solver_ms", "ms");
    ("invoke_p50_ms", "ms");
    ("overrun_frac", "ratio");
    ("p_late", "ratio");
    ("solver.solve_ms", "ms");
    ("solver.nodes", "count");
    ("solver.failures", "count");
    ("solver.lns_moves", "count");
    ("solver.nodes_per_s", "1/s");
    ("solver.seed_at_bound_ratio", "ratio");
  ]
  @ List.map (fun n -> ("solver.stop." ^ n, "count")) stop_names
  @ [ ("store.propagations", "count") ]
  @ List.concat_map
      (fun p -> [ ("prop." ^ p ^ ".fires", "count"); ("prop." ^ p ^ ".us_per_fire", "us") ])
      prop_names
  @ List.map
      (fun c -> ("session." ^ c, "count"))
      [ "rebuilds"; "appended_jobs"; "retracted"; "cert_proofs" ]
  @ [ ("journal.events", "count"); ("journal.bytes", "bytes") ]
  @ List.concat_map
      (fun r ->
        [
          (r ^ ".tasks", "count");
          (r ^ ".bound.ms", "ms");
          (r ^ ".greedy.ms", "ms");
          (r ^ ".seed.ms", "ms");
          (r ^ ".matchmaker.ms", "ms");
          (r ^ ".search.ms", "ms");
          (r ^ ".search.nodes_per_s", "1/s");
        ])
      rung_names
  @ List.concat_map
      (fun l -> [ (l ^ ".self_ms", "ms"); (l ^ ".share", "ratio") ])
      [ "bound"; "greedy"; "seed"; "matchmaker"; "search" ]
  @ [
      ("trace.overhead_s", "s");
      ("trace.spans", "count");
      ("error_frac", "ratio");
    ]

(* Order [metrics] by [schema], filling absent ones with 0.
   @raise Failure on a metric the schema does not declare. *)
let against schema (metrics : metric list) =
  List.iter
    (fun (n, _, u) ->
      if List.assoc_opt n schema <> Some u then
        failwith (Printf.sprintf "metric %s (%s) is not declared" n u))
    metrics;
  List.map
    (fun (n, u) ->
      match List.find_opt (fun (m, _, _) -> m = n) metrics with
      | Some m -> m
      | None -> (n, 0., u))
    schema

let schema_json () =
  let l schema =
    Obs.Json.List
      (List.map
         (fun (n, u) -> Obs.Json.Obj [ ("name", Obs.Json.String n); ("unit", Obs.Json.String u) ])
         schema)
  in
  Obs.Json.to_string
    (Obs.Json.Obj [ ("end_to_end", l end_to_end_schema); ("per_layer", l per_layer_schema) ])

(* Solver-internal counters, read from instrumented metrics snapshots. *)
let instrumented_metrics snap : metric list =
  let counter name =
    float_of_int (Option.value (Obs.Metrics.find_counter snap name) ~default:0)
  in
  let props =
    List.concat_map
      (fun p ->
        let fires = counter ("prop/" ^ p ^ "/fires") in
        let time =
          match Obs.Metrics.find_histo snap ("prop/" ^ p ^ "/time_s") with
          | Some h -> h.Obs.Metrics.sum
          | None -> 0.
        in
        [
          ("prop." ^ p ^ ".fires", fires, "count");
          ("prop." ^ p ^ ".us_per_fire", ratio (time *. 1e6) fires, "us");
        ])
      prop_names
  in
  [ ("store.propagations", counter "store/propagations", "count") ]
  @ props
  @ List.map
      (fun c -> ("session." ^ c, counter ("session/" ^ c), "count"))
      [ "rebuilds"; "appended_jobs"; "retracted"; "cert_proofs" ]

(* Self time (ms) of the spans named [layers], and its share of [total]. *)
let layer_metrics ~total ~by_name layers : metric list =
  List.concat_map
    (fun layer ->
      let self =
        match Hashtbl.find_opt by_name layer with
        | Some (_, _, self) -> self
        | None -> 0.
      in
      [
        (layer ^ ".self_ms", self *. 1000., "ms");
        (layer ^ ".share", ratio self total, "ratio");
      ])
    layers

(* ---------------------------------------------------------- layer report *)

let render_table ~title rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (title ^ "\n");
  let w = List.fold_left (fun m (k, _) -> max m (String.length k)) 0 rows in
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %-*s  %s\n" w k v))
    rows;
  Buffer.contents buf

(* --------------------------------------------------------------- modes *)

type outcome = { metrics : metric list; attempted : int; failed : int; report : string }

let guard failures f =
  try f ()
  with e ->
    incr failures;
    Printf.eprintf "check failed: %s\n%!"
      (match e with Check_failed m | Failure m -> m | e -> Printexc.to_string e)

(* The layer ladder, run in fb-paper's traced invocation: two traced
   repetitions over the rungs of [seed], whose counts must agree with each
   other and with the recorded ones.  Returns per-layer metrics, report
   rows, and how many repetitions ran and failed. *)
let run_ladder size ~seed ~expected =
  let failures = ref 0 in
  let reps = 2 in
  let ladders =
    List.filter_map Fun.id
      (List.init reps (fun i ->
           request := i;
           let out = ref None in
           guard failures (fun () ->
               let rungs = cut_rungs size ~seed in
               out :=
                 Some
                   (timed "ladder" (fun () ->
                        List.map
                          (fun r -> fst (timed r.label (fun () -> run_rung ~instrument:true r)))
                          rungs)));
           !out))
  in
  guard failures (fun () ->
      match ladders with
      | [] -> ()
      | (first, _) :: rest ->
          List.iter
            (fun (l, _) ->
              List.iter2
                (fun a b ->
                  check (a.counts = b.counts)
                    (a.r_label ^ ": counts differ between repetitions"))
                first l)
            rest;
          List.iter
            (fun r ->
              match
                List.find_opt (fun (s, l, _) -> s = seed && l = r.r_label) expected
              with
              | Some (_, _, c) ->
                  check (c = r.counts)
                    (r.r_label ^ ": counts differ from perfbench/expected_counts.txt")
              | None -> ())
            first);
  let rungs = List.concat_map fst ladders in
  let per_rung =
    List.concat_map
      (fun label ->
        match List.filter (fun r -> r.r_label = label) rungs with
        | [] -> []
        | r :: _ as rs ->
            let m f = 1000. *. median (List.map f rs) in
            let _, nodes, _, _ = r.counts in
            let search = median (List.map (fun r -> r.search_s) rs) in
            [
              (label ^ ".tasks", float_of_int r.tasks, "count");
              (label ^ ".bound.ms", m (fun r -> r.bound_s), "ms");
              (label ^ ".greedy.ms", m (fun r -> r.greedy_s), "ms");
              (label ^ ".seed.ms", m (fun r -> r.seed_s), "ms");
              (label ^ ".matchmaker.ms", m (fun r -> r.match_s), "ms");
              (label ^ ".search.ms", 1000. *. search, "ms");
              (label ^ ".search.nodes_per_s", ratio (float_of_int nodes) search, "1/s");
            ])
      rung_names
  in
  let by_name = self_times !spans in
  let ladder_s = sum (List.map snd ladders) in
  let metrics =
    per_rung
    @ layer_metrics ~total:ladder_s ~by_name
        [ "bound"; "greedy"; "seed"; "matchmaker"; "search" ]
  in
  let rows =
    ("layer ladder", Printf.sprintf "%d repetitions, %.3f s" reps ladder_s)
    :: List.concat_map
      (fun label ->
        match List.filter (fun r -> r.r_label = label) rungs with
        | [] -> []
        | r :: _ as rs ->
            let sl, nodes, fails, late = r.counts in
            let row name f =
              let v = median (List.map f rs) in
              ( Printf.sprintf "%s %s" label name,
                Printf.sprintf "%9.2f ms  %5.1f%% of the rung pass" (1000. *. v)
                  (100. *. ratio v r.pass_s) )
            in
            [
              ( label,
                Printf.sprintf
                  "%d tasks, %d jobs; seed late %d, searched late %d, %d nodes, %d failures"
                  r.tasks r.jobs sl late nodes fails );
              row "bound" (fun r -> r.bound_s);
              row "greedy" (fun r -> r.greedy_s);
              row "seed" (fun r -> r.seed_s);
              row "matchmaker" (fun r -> r.match_s);
              row "search" (fun r -> r.search_s);
            ])
      rung_names
  in
  (metrics, rows, reps, !failures)

let streams_for spec ~seconds =
  max 2 ((spec.streams_per_10s * seconds + 5) / 10)

let run_streams name spec ~size ~seed ~seconds ~trace =
  let failures = ref 0 in
  (* a traced invocation runs the work twice, so each run gets half *)
  let k = streams_for spec ~seconds in
  let k = if trace then max 2 (k / 2) else k in
  let seeds = List.init k (fun i -> (seed * 1009) + i) in
  let measure ~traced =
    tracing := traced;
    let acc = new_acc () in
    let runs =
      List.filter_map
        (fun s ->
          request := s;
          let out = ref None in
          guard failures (fun () ->
              out := Some (run_stream ~instrument:traced acc spec ~seed:s));
          !out)
        seeds
    in
    tracing := false;
    (acc, runs)
  in
  let acc, runs = measure ~traced:false in
  let peak_rss = peak_rss_mb () in
  (* correctness pass, untimed and after the memory peak is read: sub-stream
     0 again with every oracle on *)
  guard failures (fun () ->
      ignore (run_stream ~validate:true (new_acc ()) spec ~seed:(List.hd seeds)));
  (* one stderr line per sub-stream, for reading a run's spread *)
  List.iter
    (fun r ->
      Printf.eprintf "sub-stream: run_s %.3f  O %.2f ms/job  late %d/%d  passes %d\n%!"
        r.run_s (1000. *. r.o_per_job_s) r.late r.jobs r.passes)
    runs;
  let run_total = sum (List.map (fun r -> r.run_s) runs) in
  let jobs = sumi (List.map (fun (r : stream_run) -> r.jobs) runs) in
  let late = sumi (List.map (fun (r : stream_run) -> r.late) runs) in
  let turnaround = sum (List.map (fun r -> r.turnaround_sum_s) runs) in
  let passes = List.length acc.pass_s in
  let attempted = List.length seeds + 1 in
  if not trace then
    {
      attempted;
      failed = !failures;
      report = "";
      metrics =
        [
          ("setup_s", median (List.map (fun r -> r.setup_s) runs), "s");
          ("run_s", median (List.map (fun r -> r.run_s) runs), "s");
          ( "o_mean_ms",
            1000. *. median (List.map (fun r -> r.o_per_job_s) runs),
            "ms/job" );
          ("invoke_p95_ms", 1000. *. quantile 0.95 acc.pass_s, "ms");
          ("turnaround_s", ratio turnaround (float_of_int jobs), "s");
          ("peak_rss_mb", peak_rss, "MB");
        ];
    }
  else begin
    (* the traced run: same work, instrumentation and spans on *)
    spans := [];
    let tacc, truns = measure ~traced:true in
    let trun_s = sum (List.map (fun r -> r.run_s) truns) in
    let by_name = self_times !spans in
    let events = sumi (List.map (fun r -> r.events) truns) in
    let tpasses = List.length tacc.pass_s in
    let callbacks = tacc.submit_s +. tacc.invoke_s +. tacc.notify_s in
    let sim_self = trun_s -. callbacks in
    let cache_hits = sumi (List.map (fun r -> r.cache_hits) truns) in
    let snap =
      Obs.Metrics.merge_all
        (List.filter_map (fun (r : stream_run) -> r.solver_metrics) truns)
    in
    let span_self name =
      match Hashtbl.find_opt by_name name with Some (_, _, s) -> s | None -> 0.
    in
    (* accounting: the span tree's simulator self time must equal run_s minus
       the wrapped callbacks, i.e. every callback span sits under its run *)
    guard failures (fun () ->
        check
          (Float.abs (span_self "sim.run" -. sim_self) <= 0.01 *. trun_s)
          (Printf.sprintf
             "simulator self time %.3f s from spans, %.3f s from run_s minus callbacks"
             (span_self "sim.run") sim_self));
    let ladder_metrics, ladder_rows, ladder_reps, ladder_failed =
      if spec.ladder then begin
        tracing := true;
        (* the recorded counts are for the full-size rungs *)
        let expected =
          if size = Full then expected_counts "perfbench/expected_counts.txt" else []
        in
        let r = run_ladder size ~seed ~expected in
        tracing := false;
        r
      end
      else ([], [], 0, 0)
    in
    let nodes = float_of_int tacc.nodes in
    let stops =
      List.map
        (fun r ->
          let n = Obs.Solve_stats.stop_reason_to_string r in
          ( "solver.stop." ^ n,
            float_of_int (Option.value (Hashtbl.find_opt tacc.stops n) ~default:0),
            "count" ))
        Obs.Solve_stats.all_stop_reasons
    in
    let overruns = List.length (List.filter (fun d -> d > overrun_s) acc.pass_s) in
    let metrics =
      [
        ("sim.self_ms", 1000. *. sim_self, "ms");
        ("sim.share", ratio sim_self trun_s, "ratio");
        ("sim.events", float_of_int events, "count");
        ("sim.ns_per_event", 1e9 *. ratio sim_self (float_of_int events), "ns");
        ("manager.submit_ms", 1000. *. tacc.submit_s, "ms");
        ("manager.submit_share", ratio tacc.submit_s trun_s, "ratio");
        ("manager.invoke_ms", 1000. *. tacc.invoke_s, "ms");
        ("manager.invoke_share", ratio tacc.invoke_s trun_s, "ratio");
        ("manager.notify_ms", 1000. *. tacc.notify_s, "ms");
        ("manager.passes", float_of_int tpasses, "count");
        ("manager.noop_reacts", float_of_int tacc.noop_reacts, "count");
        ("manager.noop_ms", 1000. *. tacc.noop_s, "ms");
        ("manager.cache_hit_ratio", ratioi cache_hits tpasses, "ratio");
        ("manager.outside_solver_ms", 1000. *. (tacc.invoke_s -. tacc.solve_s), "ms");
        ("invoke_p50_ms", 1000. *. quantile 0.5 acc.pass_s, "ms");
        ("overrun_frac", ratioi overruns passes, "ratio");
        ("p_late", ratioi late jobs, "ratio");
        ("solver.solve_ms", 1000. *. tacc.solve_s, "ms");
        ("solver.nodes", nodes, "count");
        ("solver.failures", float_of_int tacc.failures, "count");
        ("solver.lns_moves", float_of_int tacc.lns_moves, "count");
        ("solver.nodes_per_s", ratio nodes tacc.solve_s, "1/s");
        ("solver.seed_at_bound_ratio", ratioi tacc.seed_at_bound tpasses, "ratio");
      ]
      @ stops @ instrumented_metrics snap @ ladder_metrics
      @ [
          ("journal.events",
            float_of_int (sumi (List.map (fun r -> r.journal_events) truns)), "count");
          ("journal.bytes",
            float_of_int (sumi (List.map (fun r -> r.journal_bytes) truns)), "bytes");
          ("trace.overhead_s", trun_s -. run_total, "s");
          ("trace.spans", float_of_int (List.length !spans), "count");
        ]
    in
    let rows =
      [
        ("run_s (traced / untraced)", Printf.sprintf "%.3f s / %.3f s" trun_s run_total);
        ("sub-streams x jobs", Printf.sprintf "%d x %d" (List.length truns) spec.jobs_per_stream);
      ]
      @ List.map
          (fun (label, self, count) ->
            ( label,
              Printf.sprintf "self %9.1f ms  %5.1f%% of run_s  (%s)"
                (1000. *. self) (100. *. ratio self trun_s) count ))
          [
            ("sim (Opensim.Simulator, Desim)", sim_self, Printf.sprintf "%d events" events);
            ("manager.submit", tacc.submit_s, Printf.sprintf "%d jobs" jobs);
            ( "manager.invoke",
              tacc.invoke_s,
              Printf.sprintf "%d reacts" (tpasses + tacc.noop_reacts) );
            ("manager.notify", tacc.notify_s, "task and fault notifications");
          ]
      @ [
          ("passes / no-op reacts", Printf.sprintf "%d / %d" tpasses tacc.noop_reacts);
          ( "cache hits",
            Printf.sprintf "%.3f (%d of %d passes)" (ratioi cache_hits tpasses)
              cache_hits tpasses );
          ( "solver / outside solver",
            Printf.sprintf "%.1f ms / %.1f ms of %.1f ms invoke (no-op reacts %.1f ms)"
              (1000. *. tacc.solve_s)
              (1000. *. (tacc.invoke_s -. tacc.solve_s))
              (1000. *. tacc.invoke_s) (1000. *. tacc.noop_s) );
          ( "seed at bound",
            Printf.sprintf "%.3f (%d of %d passes)"
              (ratioi tacc.seed_at_bound tpasses) tacc.seed_at_bound tpasses );
          ("late jobs (untraced)", Printf.sprintf "%.4f (%d of %d jobs)" (ratioi late jobs) late jobs);
          ( "overruns > 0.3 s (untraced)",
            Printf.sprintf "%.4f (%d of %d passes)" (ratioi overruns passes) overruns passes );
          ( "nodes per solver second",
            Printf.sprintf "%.0f (%d nodes in %.3f s)" (ratio nodes tacc.solve_s)
              tacc.nodes tacc.solve_s );
          ( "stop reasons",
            String.concat ", "
              (List.filter_map
                 (fun (n, v, _) -> if v > 0. then Some (Printf.sprintf "%s %.0f" n v) else None)
                 stops) );
          ( "tracing overhead",
            Printf.sprintf "%.3f s (%d spans)" (trun_s -. run_total) (List.length !spans) );
        ]
      @ ladder_rows
    in
    {
      attempted = attempted + List.length seeds + ladder_reps;
      failed = !failures + ladder_failed;
      metrics;
      report = render_table ~title:(name ^ ": traced run") rows }
  end

(* ----------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let size = ref Full in
  let record = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME fb-paper or synth-chaos");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S nominal measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--tiny", Arg.Unit (fun () -> size := Tiny), " smoke-test size");
      ( "--schema",
        Arg.Unit (fun () -> print_endline (schema_json ()); exit 0),
        " print every metric name and unit, then exit" );
      ( "--record-counts",
        Arg.Unit (fun () -> record := true),
        " print the layer ladder's deterministic counts for --seed, then exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 in
  if !record then begin
    List.iter
      (fun r ->
        let x = run_rung ~instrument:false r in
        let a, b, c, d = x.counts in
        Printf.printf "%d %s %d %d %d %d\n" !seed x.r_label a b c d)
      (cut_rungs !size ~seed:!seed);
    exit 0
  end;
  let outcome =
    match stream_of !workload !size with
    | Some spec -> run_streams !workload spec ~size:!size ~seed:!seed ~seconds:!seconds ~trace
    | None ->
        Printf.eprintf "unknown workload %S\n" !workload;
        exit 2
  in
  if trace then begin
    (* run.py builds into .bench_build, so the directory's parent exists *)
    let out_dir = ".bench_build/perfbench" in
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    let base = Filename.concat out_dir (Printf.sprintf "%s-seed%d" !workload !seed) in
    write_spans (base ^ ".trace.json") !spans;
    let oc = open_out (base ^ ".layers.txt") in
    output_string oc outcome.report;
    close_out oc;
    print_string outcome.report
  end;
  let metrics =
    if trace then
      ("error_frac", ratioi outcome.failed outcome.attempted, "ratio")
      :: outcome.metrics
      |> against per_layer_schema
    else against end_to_end_schema outcome.metrics
  in
  print_endline
    (result_line ~attempted:outcome.attempted ~failed:outcome.failed metrics);
  if outcome.failed > 0 then exit 1
