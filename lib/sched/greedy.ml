module T = Mapreduce.Types

type order = By_job_id | Edf | Least_laxity

let order_to_string = function
  | By_job_id -> "job-id"
  | Edf -> "edf"
  | Least_laxity -> "least-laxity"

let compare_jobs order (a : Instance.pending_job) (b : Instance.pending_job) =
  let key (j : Instance.pending_job) =
    match order with
    | By_job_id -> j.Instance.job.T.id
    | Edf -> j.Instance.job.T.deadline
    | Least_laxity -> Instance.laxity j
  in
  let c = compare (key a) (key b) in
  if c <> 0 then c else compare a.Instance.job.T.id b.Instance.job.T.id

(* Longest tasks first within a phase: pairs well with earliest-fit since the
   big tasks claim contiguous room before fragmentation sets in. *)
let by_duration_desc (a : T.task) (b : T.task) =
  let c = compare b.T.exec_time a.T.exec_time in
  if c <> 0 then c else compare a.T.task_id b.T.task_id

(* The fixed (running or frozen) tasks of one pool, bulk-loaded. *)
let fixed_profile (inst : Instance.t) ~capacity fixed_of =
  Profile.of_tasks ~capacity (fun emit ->
      Array.iter
        (fun (j : Instance.pending_job) ->
          Array.iter
            (fun (f : Instance.fixed_task) ->
              emit ~start:f.Instance.start ~duration:f.Instance.task.T.exec_time
                ~amount:f.Instance.task.T.capacity_req)
            (fixed_of j))
        inst.Instance.jobs)

let schedule_sequence (inst : Instance.t) sequence =
  (* fixed tasks occupy their frozen windows first *)
  let map_profile =
    fixed_profile inst ~capacity:inst.Instance.map_capacity (fun j ->
        j.Instance.fixed_maps)
  in
  let reduce_profile =
    fixed_profile inst ~capacity:inst.Instance.reduce_capacity (fun j ->
        j.Instance.fixed_reduces)
  in
  let starts = Hashtbl.create (max 16 (Instance.pending_task_count inst)) in
  let place profile ~floor (task : T.task) =
    let start =
      Profile.earliest_fit profile ~from:floor ~duration:task.T.exec_time
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

let solve_with_sequence inst sequence =
  let n = Array.length inst.Instance.jobs in
  if Array.length sequence <> n then
    invalid_arg "Greedy.solve_with_sequence: sequence length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then
        invalid_arg "Greedy.solve_with_sequence: not a permutation";
      seen.(i) <- true)
    sequence;
  schedule_sequence inst sequence

let sequence order (inst : Instance.t) =
  let n = Array.length inst.Instance.jobs in
  let sequence = Array.init n (fun i -> i) in
  let cmp a b = compare_jobs order inst.Instance.jobs.(a) inst.Instance.jobs.(b) in
  Array.sort cmp sequence;
  sequence

let solve ?(order = Edf) (inst : Instance.t) =
  schedule_sequence inst (sequence order inst)
