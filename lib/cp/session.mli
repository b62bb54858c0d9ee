(** Solver session: the cold pipeline plus a carried optimality certificate.

    Every invocation runs the one {!Solver} pipeline — seed → bound →
    exact search or LNS — on a freshly built model, under the caller's
    options ([kernel], [restart] and the limits apply to every pass).  What
    the session adds is an {e optimality certificate} carried between
    invocations: after a proved solve it records the proved Σ N_j together
    with each job's lateness and completion under the installed plan.  On a
    later instance the certificate yields a lower bound — the proved bound
    minus the realized lateness of jobs that have since departed, plus the
    solo dooms of jobs outside the certified set (a job that cannot meet
    its deadline even alone is late in every schedule, so the two bounds
    add; see {!Solver.job_doomed}).  Time only shrinks the feasible set
    (ests grow, started tasks freeze at their dispatched starts), so the
    old proof remains a valid bound on the surviving subset.

    Each pass works out [lb = max (late_lower_bound inst) (certificate
    bound)], seeds once against it, and hands the pass to
    {!Solver.solve_seeded} with that [lb].  A seed that meets [lb] is
    proved optimal with {e no search at all}; an exact search or an LNS
    loop whose incumbent reaches [lb] stops there instead of exhausting the
    tree (or stalling) to re-prove what the certificate already knows.
    Since [lb] is a valid lower bound, a session pass returns a plan with
    the same Σ N_j a cold solve proves whenever both prove optimality; the
    first pass of a fresh session is exactly the cold solve.

    A session serves one manager sequentially — it is not thread-safe and
    is not used by the multi-domain {!Portfolio} (managers run sessions
    only with [domains = 1]). *)

type t

val create : unit -> t
(** A session with no certificate yet. *)

val solve :
  t ->
  options:Solver.options ->
  Sched.Instance.t ->
  Sched.Solution.t * Solver.stats
(** One pass of the {!Solver} pipeline with the certificate's bound, then a
    certificate update from the returned plan.  Same contract as
    {!Solver.solve}: never fails, at worst returns the greedy seed.  A pass
    that ends only because its incumbent met the carried bound (and not the
    instance's own {!Solver.late_lower_bound}, nor an exhaustive search)
    reports [stop_reason = Hit_carried_bound].  With [options.instrument]
    the stats carry [session/cert_proofs] (1 on such a pass, else 0) along
    with the pipeline's own counters. *)

val stats_cert_proofs : t -> int
(** Invocations proved optimal by the carried optimality certificate —
    proofs the instance's own lower bound could not deliver, so a cold
    solve would have had to search for them.  Cumulative over the
    session's lifetime. *)
