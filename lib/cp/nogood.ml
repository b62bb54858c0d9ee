(* Nld-nogoods over bound literals, propagated with two watched literals
   per clause.

   A literal (v, <=, a) or (v, >=, a) is
   - ENTAILED when the current domain of v is contained in it,
   - REFUTED when the current domain is disjoint from it,
   - undecided otherwise.

   A clause is a set of literals that cannot all hold in an improving
   solution: when all are entailed the search fails, when all but one are
   entailed and the last is undecided its complement is asserted.

   Per-clause state is the pair of watched positions (w1, w2); the watch
   invariant is the classic SAT one — a watch only rests on a literal that
   was not entailed when it was placed, and every entailment of a watched
   literal is (eventually) processed through the occurrence list of its
   variable.  Watch positions are deliberately not trailed: after a
   backtrack a watch may rest on an entailed literal, but then the clause
   was unit or satisfied when the watch was last examined, and the
   occurrence entry is still in place, so the next event on either watched
   variable re-examines it — and the propagator rescans all watched
   variables on every run, so nothing is missed.  Occurrence lists are
   keyed by variable (not literal) and use lazy deletion: entries whose
   clause no longer watches any literal of the variable are dropped during
   compaction. *)

(* lit = (a lsl 21) lor (vref lsl 1) lor dir, dir 1 = ">=".  Constants and
   variable references are non-negative and small (horizon-sized times,
   task-count-sized refs), asserted at construction. *)

let max_vref = (1 lsl 20) - 1

let lit_make vref a dir =
  if vref < 0 || vref > max_vref then invalid_arg "Nogood.lit: vref";
  if a < 0 then invalid_arg "Nogood.lit: negative constant";
  (a lsl 21) lor (vref lsl 1) lor dir

let lit_le vref a = lit_make vref a 0
let lit_ge vref a = lit_make vref a 1
let lit_var l = (l lsr 1) land max_vref
let lit_is_ge l = l land 1 = 1
let lit_const l = l lsr 21

type t = {
  max_clauses : int;
  max_lits : int;
  mutable clauses : int array array;  (* clause -> packed literals *)
  mutable bounds : int array;  (* incumbent bound when the clause was derived *)
  mutable w1 : int array;  (* watched positions; -1 = inert *)
  mutable w2 : int array;
  mutable n : int;
  mutable committed : int;  (* clauses below this are wired into the store *)
  mutable recorded : int;
  mutable dropped : int;
  mutable unit_props : int;
  mutable conflicts : int;
  mutable context : string option;
  (* attachment *)
  mutable store : Store.t option;
  mutable pid : Store.propagator_id option;
  mutable vars : Store.var array;  (* vref -> store var *)
  mutable store_watched : Bytes.t;  (* (vref, dir) pairs already watched *)
  mutable occ : int array array;  (* vref -> clause ids watching a lit of it *)
  mutable occ_len : int array;
  (* Bounds + restore stamp each vref was last processed at.  Between
     backtracks bounds only tighten, and any loosening (or re-tightening to
     the same values, which can silently undo a unit assertion recorded in
     the snapshot state) goes through a trail restore that bumps the var's
     {!Store.restore_stamp} — so "bounds and stamp both unchanged" means no
     watched literal of the vref changed entailment status since the
     snapshot, and the vref needs no re-examination. *)
  mutable seen_min : int array;
  mutable seen_max : int array;
  mutable seen_undo : int array;
}

let create ?(max_clauses = 20_000) ?(max_lits = 64) () =
  {
    max_clauses;
    max_lits;
    clauses = Array.make 64 [||];
    bounds = Array.make 64 0;
    w1 = Array.make 64 (-1);
    w2 = Array.make 64 (-1);
    n = 0;
    committed = 0;
    recorded = 0;
    dropped = 0;
    unit_props = 0;
    conflicts = 0;
    context = None;
    store = None;
    pid = None;
    vars = [||];
    store_watched = Bytes.empty;
    occ = [||];
    occ_len = [||];
    seen_min = [||];
    seen_max = [||];
    seen_undo = [||];
  }

let size t = t.n
let stats_recorded t = t.recorded
let stats_dropped t = t.dropped
let stats_unit_props t = t.unit_props
let stats_conflicts t = t.conflicts

let iter t f =
  for c = 0 to t.n - 1 do
    f ~lits:t.clauses.(c) ~bound:t.bounds.(c)
  done

let grow_clause_arrays t =
  let cap = Array.length t.clauses in
  if t.n >= cap then begin
    let cap' = 2 * cap in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    t.clauses <- extend t.clauses [||];
    t.bounds <- extend t.bounds 0;
    t.w1 <- extend t.w1 (-1);
    t.w2 <- extend t.w2 (-1)
  end

let record t ~lits ~bound =
  let len = Array.length lits in
  if len = 0 then ()
  else if len > t.max_lits || t.n >= t.max_clauses then
    t.dropped <- t.dropped + 1
  else begin
    grow_clause_arrays t;
    t.clauses.(t.n) <- lits;
    t.bounds.(t.n) <- bound;
    t.w1.(t.n) <- -1;
    t.w2.(t.n) <- -1;
    t.n <- t.n + 1;
    t.recorded <- t.recorded + 1
  end

let set_context t ctx =
  match t.context with
  | Some c when String.equal c ctx -> ()
  | _ ->
      t.context <- Some ctx;
      t.n <- 0;
      t.committed <- 0

(* --- literal tests against the attached store -------------------------- *)

let entailed t s l =
  let v = t.vars.(lit_var l) in
  if lit_is_ge l then Store.min_of s v >= lit_const l
  else Store.max_of s v <= lit_const l

let refuted t s l =
  let v = t.vars.(lit_var l) in
  if lit_is_ge l then Store.max_of s v < lit_const l
  else Store.min_of s v > lit_const l

(* assert the complement of l; only called on undecided literals, so the
   write is a genuine tightening and cannot fail *)
let assert_complement t s l =
  t.unit_props <- t.unit_props + 1;
  Store.note_nogood_prune s;
  let v = t.vars.(lit_var l) in
  if lit_is_ge l then Store.set_max s v (lit_const l - 1)
  else Store.set_min s v (lit_const l + 1)

(* --- occurrence lists and store watches -------------------------------- *)

let occ_push t vref c =
  let a = t.occ.(vref) and len = t.occ_len.(vref) in
  let a =
    if len >= Array.length a then begin
      let a' = Array.make (max 8 (2 * len)) 0 in
      Array.blit a 0 a' 0 len;
      t.occ.(vref) <- a';
      a'
    end
    else a
  in
  a.(len) <- c;
  t.occ_len.(vref) <- len + 1

(* A [<=] literal becomes entailed when the max drops, a [>=] one when the
   min rises; store watches are registered once per (vref, direction). *)
let ensure_store_watch t s l =
  let vref = lit_var l in
  let slot = (vref * 2) + if lit_is_ge l then 1 else 0 in
  if Bytes.get t.store_watched slot = '\000' then begin
    Bytes.set t.store_watched slot '\001';
    let v = t.vars.(vref) in
    let pid = Option.get t.pid in
    if lit_is_ge l then Store.watch_min s v pid else Store.watch_max s v pid
  end

(* [act] moves the watch at position [which] (1 or 2) of clause [c] off its
   entailed literal.  [Moved]: a replacement watch was placed (and, if its
   variable differs from the old one, an occurrence entry pushed there).
   [Resolved]: no replacement exists — the clause is satisfied (other watch
   refuted) or unit (other watch's complement asserted); the watch stays on
   the entailed literal, which is exactly the untrailed-watch invariant. *)
type act_result = Moved | Resolved

let act t s c which =
  let lits = t.clauses.(c) in
  let p1 = t.w1.(c) and p2 = t.w2.(c) in
  let mine = if which = 1 then p1 else p2 in
  let other = if which = 1 then p2 else p1 in
  let len = Array.length lits in
  let found = ref (-1) in
  let p = ref 0 in
  while !found < 0 && !p < len do
    if !p <> p1 && !p <> p2 && not (entailed t s lits.(!p)) then found := !p;
    incr p
  done;
  if !found >= 0 then begin
    let l' = lits.(!found) in
    if which = 1 then t.w1.(c) <- !found else t.w2.(c) <- !found;
    ensure_store_watch t s l';
    if lit_var l' <> lit_var lits.(mine) then occ_push t (lit_var l') c;
    Moved
  end
  else begin
    let lo = lits.(other) in
    if refuted t s lo then Resolved (* satisfied via the other watch *)
    else if entailed t s lo then begin
      t.conflicts <- t.conflicts + 1;
      raise (Store.Fail "nogood")
    end
    else begin
      assert_complement t s lo;
      Resolved
    end
  end

(* Re-examine clause [c] from vref's occurrence list; [true] keeps the
   entry.  Terminates: [act] only ever moves a watch onto a non-entailed
   literal, so at most both watches move before the else-branch is hit. *)
let rec handle t s vref c =
  let p1 = t.w1.(c) in
  if p1 < 0 then false (* inert clause *)
  else begin
    let lits = t.clauses.(c) in
    let p2 = t.w2.(c) in
    let on1 = lit_var lits.(p1) = vref and on2 = lit_var lits.(p2) = vref in
    if not (on1 || on2) then false (* watches moved elsewhere: stale entry *)
    else if on1 && entailed t s lits.(p1) then
      match act t s c 1 with
      | Moved -> handle t s vref c
      | Resolved -> true
    else if on2 && entailed t s lits.(p2) then
      match act t s c 2 with
      | Moved -> handle t s vref c
      | Resolved -> true
    else true
  end

(* Process the occurrence list of [vref]: lazily compact stale entries and
   act on clauses whose watched literal(s) on vref became entailed. *)
let process t s vref =
  let a = t.occ.(vref) in
  let n = t.occ_len.(vref) in
  let w = ref 0 in
  try
    for r = 0 to n - 1 do
      if handle t s vref a.(r) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    t.occ_len.(vref) <- !w
  with Store.Fail _ as e ->
    (* conservative on unwind: keep the whole list (already-compacted
       entries may sit duplicated in the tail; they are stale-dropped on
       the next examination) *)
    t.occ_len.(vref) <- n;
    raise e

let run t s =
  let nv = Array.length t.vars in
  for vref = 0 to nv - 1 do
    if t.occ_len.(vref) > 0 then begin
      let v = t.vars.(vref) in
      let mn = Store.min_of s v
      and mx = Store.max_of s v
      and us = Store.restore_stamp s v in
      if
        mn <> t.seen_min.(vref)
        || mx <> t.seen_max.(vref)
        || us <> t.seen_undo.(vref)
      then begin
        (* snapshot before processing: unit assertions on vref itself
           re-wake this propagator, and the next run must re-examine it *)
        t.seen_min.(vref) <- mn;
        t.seen_max.(vref) <- mx;
        t.seen_undo.(vref) <- us;
        process t s vref
      end
    end
  done

(* Wire one clause against the (root-level) store: find two undecided
   literals to watch; with one undecided assert its complement, with none
   fail.  A literal refuted at the root keeps the clause satisfied forever
   (root bounds are never undone), so such clauses stay inert. *)
let wire t s c =
  let lits = t.clauses.(c) in
  let satisfied = ref false in
  let p1 = ref (-1) and p2 = ref (-1) in
  Array.iteri
    (fun p l ->
      if refuted t s l then satisfied := true
      else if not (entailed t s l) then
        if !p1 < 0 then p1 := p else if !p2 < 0 then p2 := p)
    lits;
  if !satisfied then begin
    t.w1.(c) <- -1;
    t.w2.(c) <- -1
  end
  else if !p1 < 0 then begin
    t.conflicts <- t.conflicts + 1;
    raise (Store.Fail "nogood at root")
  end
  else if !p2 < 0 then begin
    assert_complement t s lits.(!p1);
    t.w1.(c) <- -1;
    t.w2.(c) <- -1
  end
  else begin
    t.w1.(c) <- !p1;
    t.w2.(c) <- !p2;
    ensure_store_watch t s lits.(!p1);
    ensure_store_watch t s lits.(!p2);
    occ_push t (lit_var lits.(!p1)) c;
    if lit_var lits.(!p2) <> lit_var lits.(!p1) then
      occ_push t (lit_var lits.(!p2)) c
  end

let commit t =
  match t.store with
  | None -> ()
  | Some s ->
      while t.committed < t.n do
        let c = t.committed in
        t.committed <- t.committed + 1;
        wire t s c
      done

let attach t store ~vars =
  t.store <- Some store;
  t.vars <- vars;
  let nv = Array.length vars in
  if nv > max_vref then invalid_arg "Nogood.attach: too many variables";
  t.occ <- Array.make nv [||];
  t.occ_len <- Array.make nv 0;
  t.store_watched <- Bytes.make (2 * nv) '\000';
  t.seen_min <- Array.make nv max_int;
  t.seen_max <- Array.make nv min_int;
  t.seen_undo <- Array.make nv (-1);
  t.pid <-
    Some
      (Store.register store ~priority:0 ~name:"nogood" ~idempotent:false
         (fun s -> run t s));
  t.committed <- 0;
  commit t
