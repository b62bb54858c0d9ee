(** Resource-usage step profile over integer time.

    Tracks the total capacity in use as a piecewise-constant function of time,
    supporting the two queries every list scheduler here needs:

    - does a task of duration [d] and requirement [q] fit at time [t] under
      capacity [cap]?
    - what is the earliest [t' >= t] where it fits?

    Used for the combined-resource greedy schedulers (paper §V.D solves on one
    combined resource), for schedule validation, and by the MinEDF-WC
    baseline's slot accounting. *)

type t

val create : capacity:int -> t
(** An empty profile with the given capacity limit (must be positive). *)

val capacity : t -> int

val add : t -> start:int -> duration:int -> amount:int -> unit
(** Occupy [amount] units over [start, start+duration).  Zero-duration tasks
    occupy nothing.  No overflow check — see {!fits} / {!val-max_usage}. *)

val of_tasks :
  capacity:int ->
  ((start:int -> duration:int -> amount:int -> unit) -> unit) ->
  t
(** [of_tasks ~capacity iter] is the profile that {!create} followed by one
    {!add} per task [iter] emits would build — the same {!steps}, boundary
    for boundary — but loaded with one sort-and-sweep over the tasks'
    boundaries instead of one sorted-array insert (and tail blit) per task.
    The greedy schedulers use it to pre-load the fixed (running or frozen)
    tasks, which can number in the hundreds of thousands over an open
    stream.  [iter] must emit the same tasks each time it is called; it is
    called three times.
    @raise Invalid_argument on a negative duration or amount, as {!add}. *)

val remove : t -> start:int -> duration:int -> amount:int -> unit
(** Inverse of {!add} (used by LNS relaxation).  Forgets the congested run
    {!earliest_fit} remembered. *)

val usage_at : t -> int -> int
(** Units in use at time [t]. *)

val fits : t -> start:int -> duration:int -> amount:int -> bool
(** True when adding the task would not exceed capacity anywhere in
    [start, start+duration). *)

val earliest_fit : t -> from:int -> duration:int -> amount:int -> int
(** Earliest [t >= from] such that [fits t].  Always terminates: after the
    last profile step the profile is empty.

    The profile remembers the congested run the last call skipped at its
    start: usage above [capacity - amount] from [from] up to some [t'].
    Since {!add} only raises usage and never deletes a step boundary, that
    run stays congested, so the next call with the same [from] and [amount]
    resumes its walk at [t'] (found by binary search on time) instead of
    re-walking it — one greedy pass places all of a job's maps from the
    same [from].
    {!remove} clears the remembered run; {!create} and {!of_tasks} start
    without one.  The result is exactly that of a fresh walk. *)

val max_usage : t -> int
(** Peak usage over all time (0 for an empty profile). *)

val steps : t -> (int * int) list
(** The profile as [(time, usage-from-time-on)] steps, ascending, usage 0
    before the first step; for tests and debugging. *)
