(** Nogood recording from restarts (Lecoutre et al., "Nogood recording from
    restarts", 2007), over the bound literals of the branch-and-bound
    search.

    At each restart the rightmost branch of the aborted slice is read off as
    a sequence of decisions.  Every decision's left branch is a bound
    literal on a search variable:

    - lateness left branch: [N_j <= 0];
    - solution-guided split: [v <= g] (or [v >= g] when the guide sits on
      the domain maximum);
    - SetTimes left branch: [v <= est] — equivalent to [v = est] because
      the node's propagated minimum is [est], which every solution of the
      decision prefix satisfies.

    For every {e refutation point} on the rightmost branch — a lateness or
    guided right branch (the true complement of its left sibling), or a
    SetTimes postponement (a vacuous right branch: no constraint is
    asserted, so dropping it from later prefixes is exact) — the positive
    literals before it plus the refuted left literal form an {e
    nld-nogood}: that conjunction admits no improving solution.  Soundness
    follows from (a) the left sibling of every refutation point having been
    exhausted before the right branch was entered, and (b) the objective
    bound only ever tightening, so a subtree proved empty of improving
    solutions stays empty.

    The database propagates its clauses with two watched literals per
    clause over the store's event-granular watch lists ([watch_max] for
    [<=] literals, [watch_min] for [>=] literals, registered lazily): one
    propagator services all clauses, watch positions are not trailed (the
    classic watched-literal invariant survives backtracking), and
    occurrence lists are compacted lazily.  A unit clause asserts the
    complement of its last undecided literal and is counted in
    {!Store.stats_nogood_prunes}. *)

type t

val create : ?max_clauses:int -> ?max_lits:int -> unit -> t
(** An empty database.  Once [max_clauses] (default 20_000) clauses are
    held, further recordings are dropped; so are clauses longer than
    [max_lits] (default 64) literals — deep-cut nogoods are long and almost
    never fire, while the short ones near the top of the tree carry the
    pruning.  Both drops are counted. *)

(** {1 Literals}

    A literal is a packed int built with {!lit_le}/{!lit_ge}.  Variables
    are named by a compact reference: job index [j] for the lateness
    variable of job [j], [n_lates + i] for entry [i] of the search's starts
    array — the same convention as the [vars] argument of {!attach}. *)

val lit_le : int -> int -> int
(** [lit_le vref a] is the literal [var(vref) <= a]; [a >= 0]. *)

val lit_ge : int -> int -> int
(** [lit_ge vref a] is the literal [var(vref) >= a]; [a >= 0]. *)

val lit_var : int -> int
val lit_is_ge : int -> bool
val lit_const : int -> int

(** {1 Recording} *)

val record : t -> lits:int array -> bound:int -> unit
(** [record t ~lits ~bound] adds the nogood "the conjunction of [lits]
    admits no solution with objective [< bound]" ([bound] being the
    incumbent bound when the nogood was derived; bounds only tighten, so it
    stays valid for the rest of the solve).  Takes ownership of [lits].
    The clause is integrated into the attached store at the next
    {!commit}. *)

val set_context : t -> string -> unit
(** Nogoods are only valid against the model they were derived from.
    [set_context t fingerprint] clears the database unless [fingerprint]
    equals the current context — LNS iterations share clauses exactly when
    their frozen-task context is identical, while the exact whole-problem
    path keeps one context for the entire solve.  Call before {!attach}. *)

(** {1 Attachment} *)

val attach : t -> Store.t -> vars:Store.var array -> unit
(** Wire the database to [store]: registers the clause propagator and
    integrates any clauses carried over from a previous attachment.
    [vars] maps variable references to store variables (lateness variables
    first, then starts — see the literal convention above).  The store must
    be at the root level.  May raise [Store.Fail] if a carried clause is
    already violated at the root. *)

val commit : t -> unit
(** Integrate clauses recorded since the last commit into the attached
    store: set up their watches and assert root-level units.  Call with the
    store at the root (i.e. after the restart's backtrack).  May raise
    [Store.Fail] when a clause is violated at the root — the search is then
    complete (no improving solution exists). *)

(** {1 Introspection} *)

val size : t -> int
(** Live clauses currently held. *)

val stats_recorded : t -> int
(** Clauses ever recorded (across contexts). *)

val stats_dropped : t -> int
(** Recordings discarded (database full, or clause over [max_lits]). *)

val stats_unit_props : t -> int
(** Unit propagations performed (complement literals asserted). *)

val stats_conflicts : t -> int
(** Clause violations detected (search backtracks). *)

val iter : t -> (lits:int array -> bound:int -> unit) -> unit
(** Iterate over live clauses — the soundness tests check each against a
    known optimal solution. *)
