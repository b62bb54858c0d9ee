(** Greedy list scheduling on the combined resource.

    Serial schedule-generation scheme: jobs in a priority order (the paper's
    three job-ordering strategies, §VI.B), each job's pending map tasks placed
    longest-first at their earliest capacity-feasible time ≥ est, then its
    reduces longest-first at their earliest feasible time ≥ the job's latest
    finishing map task.  Fixed (running or frozen) tasks pre-occupy the
    profiles, bulk-loaded with {!Profile.of_tasks}.

    The result is always feasible.  It serves as (a) the seed/incumbent for
    the CP solver's branch-and-bound and LNS, and (b) a baseline in its own
    right (a deadline-aware but non-backtracking scheduler). *)

type order =
  | By_job_id  (** submission order (paper strategy 1) *)
  | Edf  (** earliest deadline first (strategy 2) *)
  | Least_laxity  (** least laxity first (strategy 3) *)

val order_to_string : order -> string

val solve : ?order:order -> Instance.t -> Solution.t
(** Default order is {!Edf} (the configuration the paper reports). *)

val sequence : order -> Instance.t -> int array
(** The job sequence (indices into [inst.jobs]) that [solve ~order] schedules
    in: ascending by the order's key, ties broken by job id. *)

val solve_with_sequence : Instance.t -> int array -> Solution.t
(** Schedule jobs in the explicit sequence of indices into [inst.jobs]
    (building block for LNS neighbourhood moves).  The sequence must be a
    permutation of all job indices. *)
