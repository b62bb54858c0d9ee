(* Solver session: the cold pipeline plus an optimality certificate carried
   between invocations.  See session.mli for the contract. *)

module T = Mapreduce.Types
module Instance = Sched.Instance
module Solution = Sched.Solution

(* The optimality certificate.  A proved invocation's "no schedule
   beats [c_bound] late jobs" survives the clock: feasible sets only shrink
   as time advances and frozen prefixes grow (both per dispatched plans),
   and appending never-seen jobs cannot lower the remaining jobs' optimum.
   A certificate job that has since completed weakens the bound by exactly
   its realized lateness — so the carried lower bound for a later instance
   is [c_bound - Σ lateness of departed certificate jobs].  [c_lates] is
   refreshed from every installed plan (proved or not), which keeps the
   recorded (lateness, completion) of each certificate job equal to what
   execution will realize; a certificate job that is absent from the
   instance without having completed (deferred) makes the certificate
   inapplicable for that invocation, not invalid. *)
type cert = {
  c_bound : int;  (* proved minimum number of late jobs of the set below *)
  c_lates : (int, int * int) Hashtbl.t;
      (* certificate job id -> (lateness, completion) under the last
         dispatched plan *)
}

type t = { mutable cert : cert option; mutable cert_proofs : int }

let create () = { cert = None; cert_proofs = 0 }
let stats_cert_proofs t = t.cert_proofs

(* Lower bound the certificate yields for [inst]: [c_bound] minus the
   realized lateness of certificate jobs that have completed and left.
   [min_int] when there is no certificate or it is inapplicable (a
   certificate job absent without a completion on record). *)
let cert_lower_bound t (inst : Instance.t) =
  match t.cert with
  | None -> min_int
  | Some c ->
      let present = Hashtbl.create 64 in
      Array.iter
        (fun (pj : Instance.pending_job) ->
          Hashtbl.replace present pj.Instance.job.T.id ())
        inst.Instance.jobs;
      let bound = ref c.c_bound and applicable = ref true in
      Hashtbl.iter
        (fun id (late, completion) ->
          if not (Hashtbl.mem present id) then
            if completion <= inst.Instance.now then bound := !bound - late
            else applicable := false)
        c.c_lates;
      (* jobs outside the certificate set add their solo dooms: a job that
         cannot meet its deadline even alone is late in every schedule,
         independently of the certificate jobs — the two bounds add *)
      Array.iter
        (fun (pj : Instance.pending_job) ->
          if
            (not (Hashtbl.mem c.c_lates pj.Instance.job.T.id))
            && Solver.job_doomed inst pj
          then incr bound)
        inst.Instance.jobs;
      if !applicable then !bound else min_int

(* Record what the plan being installed means for each job: its lateness
   and completion under that plan.  A proved solve re-grounds the whole
   certificate on the instance; an unproved one may only refresh recorded
   jobs (the proof does not cover newcomers). *)
let update_cert t ~proved (inst : Instance.t) (sol : Solution.t) =
  let entry (pj : Instance.pending_job) =
    let completion = Solution.job_completion pj sol.Solution.starts in
    let late = if completion > pj.Instance.job.T.deadline then 1 else 0 in
    (late, completion)
  in
  if proved then begin
    let lates = Hashtbl.create 64 in
    Array.iter
      (fun (pj : Instance.pending_job) ->
        Hashtbl.replace lates pj.Instance.job.T.id (entry pj))
      inst.Instance.jobs;
    t.cert <- Some { c_bound = sol.Solution.late_jobs; c_lates = lates }
  end
  else
    match t.cert with
    | None -> ()
    | Some c ->
        Array.iter
          (fun (pj : Instance.pending_job) ->
            let id = pj.Instance.job.T.id in
            if Hashtbl.mem c.c_lates id then
              Hashtbl.replace c.c_lates id (entry pj))
          inst.Instance.jobs

let solve t ~options (inst : Instance.t) =
  let t0 = Obs.Clock.now () in
  let registry =
    if options.Solver.instrument then Some (Obs.Metrics.create ()) else None
  in
  let classic_lb = Solver.late_lower_bound inst in
  let lb = max classic_lb (cert_lower_bound t inst) in
  let seed = Solver.starting_incumbent ?registry ~options ~lb inst in
  let sol, st =
    Solver.solve_seeded ~options ~link:Solver.null_link ~t0 ~classic_lb ~lb
      ~seed inst
  in
  let via_cert = st.Solver.stop_reason = Obs.Solve_stats.Hit_carried_bound in
  if via_cert then t.cert_proofs <- t.cert_proofs + 1;
  update_cert t ~proved:st.Solver.proved_optimal inst sol;
  let metrics =
    match registry with
    | None -> st.Solver.metrics
    | Some r ->
        Obs.Metrics.add
          (Obs.Metrics.counter r "session/cert_proofs")
          (if via_cert then 1 else 0);
        let snap = Obs.Metrics.snapshot r in
        Some
          (match st.Solver.metrics with
          | None -> snap
          | Some m -> Obs.Metrics.merge m snap)
  in
  (sol, { st with Solver.metrics; elapsed = Obs.Clock.now () -. t0 })
