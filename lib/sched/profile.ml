(* The profile is a piecewise-constant usage function stored as two parallel
   sorted arrays: [times.(i)] is a step boundary and [usage.(i)] the units in
   use on [times.(i), times.(i+1)) (and beyond, for the last step).  Usage is
   0 before the first boundary.  Storing running usage (not deltas) lets
   queries binary-search a boundary and scan only the steps inside the window
   of interest, which keeps the greedy schedulers and the CP timetable fast
   even with tens of thousands of tasks.

   [earliest_fit] also remembers the congested run its last skip walked:
   usage exceeds [hint_limit] on [hint_from, hint_to).  [add] only raises
   usage and never deletes a boundary, so the run stays congested and the
   boundary at [hint_to] stays put (its index may shift; its time does not);
   a later call with the same [from] and limit resumes the walk there.
   [remove] lowers usage and empties the run ([hint_to = hint_from]); an
   empty run resumes the walk at [from] itself. *)

type t = {
  capacity : int;
  mutable times : int array;
  mutable usage : int array;
  mutable n : int;
  mutable hint_from : int;
  mutable hint_limit : int;
  mutable hint_to : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Profile.create: capacity must be > 0";
  {
    capacity;
    times = Array.make 16 0;
    usage = Array.make 16 0;
    n = 0;
    hint_from = 0;
    hint_limit = 0;
    hint_to = 0;
  }

let capacity t = t.capacity

(* Rightmost index i with times.(i) <= time, or -1. *)
let floor_index t time =
  let lo = ref 0 and hi = ref (t.n - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.times.(mid) <= time then begin
      res := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !res

let usage_at t time =
  let i = floor_index t time in
  if i < 0 then 0 else t.usage.(i)

let grow t =
  if t.n = Array.length t.times then begin
    let cap' = max 32 (2 * t.n) in
    let times' = Array.make cap' 0 and usage' = Array.make cap' 0 in
    Array.blit t.times 0 times' 0 t.n;
    Array.blit t.usage 0 usage' 0 t.n;
    t.times <- times';
    t.usage <- usage'
  end

(* Index of the boundary at exactly [time], inserting one if absent (the new
   step initially copies the usage level in force at [time]). *)
let ensure_boundary t time =
  let i = floor_index t time in
  if i >= 0 && t.times.(i) = time then i
  else begin
    grow t;
    let pos = i + 1 in
    let level = if i < 0 then 0 else t.usage.(i) in
    Array.blit t.times pos t.times (pos + 1) (t.n - pos);
    Array.blit t.usage pos t.usage (pos + 1) (t.n - pos);
    t.times.(pos) <- time;
    t.usage.(pos) <- level;
    t.n <- t.n + 1;
    pos
  end

let apply t ~start ~duration ~amount =
  if duration > 0 && amount <> 0 then begin
    let i = ensure_boundary t start in
    let j = ensure_boundary t (start + duration) in
    for k = i to j - 1 do
      t.usage.(k) <- t.usage.(k) + amount
    done
  end

let add t ~start ~duration ~amount =
  if duration < 0 then invalid_arg "Profile.add: negative duration";
  if amount < 0 then invalid_arg "Profile.add: negative amount";
  apply t ~start ~duration ~amount

let remove t ~start ~duration ~amount =
  if duration < 0 then invalid_arg "Profile.remove: negative duration";
  if amount < 0 then invalid_arg "Profile.remove: negative amount";
  t.hint_to <- t.hint_from;
  apply t ~start ~duration ~amount:(-amount)

(* Bulk load: every boundary the tasks' [add]s would insert, sorted and
   deduplicated, then +amount at each start and -amount at each end and one
   prefix-sum sweep.  The boundary array becomes the profile's own [times],
   so the only temporaries are the sort's scratch and nothing is blitted per
   task.  [iter] runs three times: count, collect, accumulate. *)
let of_tasks ~capacity iter =
  let t = create ~capacity in
  let len = ref 0 in
  iter (fun ~start:_ ~duration ~amount ->
      if duration < 0 then invalid_arg "Profile.of_tasks: negative duration";
      if amount < 0 then invalid_arg "Profile.of_tasks: negative amount";
      if duration > 0 && amount > 0 then len := !len + 2);
  let times = Array.make !len 0 in
  let k = ref 0 in
  iter (fun ~start ~duration ~amount ->
      if duration > 0 && amount > 0 then begin
        times.(!k) <- start;
        times.(!k + 1) <- start + duration;
        k := !k + 2
      end);
  Array.stable_sort
    (fun (a : int) b -> if a < b then -1 else if a > b then 1 else 0)
    times;
  let n = ref 0 in
  Array.iter
    (fun x ->
      if !n = 0 || times.(!n - 1) <> x then begin
        times.(!n) <- x;
        incr n
      end)
    times;
  t.times <- times;
  t.usage <- Array.make !len 0;
  t.n <- !n;
  iter (fun ~start ~duration ~amount ->
      if duration > 0 && amount > 0 then begin
        let i = floor_index t start and j = floor_index t (start + duration) in
        t.usage.(i) <- t.usage.(i) + amount;
        t.usage.(j) <- t.usage.(j) - amount
      end);
  for i = 1 to !n - 1 do
    t.usage.(i) <- t.usage.(i) + t.usage.(i - 1)
  done;
  t

let fits t ~start ~duration ~amount =
  if duration <= 0 || amount = 0 then true
  else begin
    let finish = start + duration in
    let i = floor_index t start in
    let ok = ref true in
    if i >= 0 && t.usage.(i) + amount > t.capacity then ok := false;
    let j = ref (i + 1) in
    while !ok && !j < t.n && t.times.(!j) < finish do
      if t.usage.(!j) + amount > t.capacity then ok := false;
      incr j
    done;
    !ok
  end

let earliest_fit t ~from ~duration ~amount =
  if duration <= 0 || amount = 0 then from
  else if amount > t.capacity then
    invalid_arg "Profile.earliest_fit: amount exceeds capacity"
  else begin
    let limit = t.capacity - amount in
    (* usage is > limit on [from, resume): known congested, not re-walked *)
    let resume =
      if t.hint_from = from && t.hint_limit = limit then t.hint_to else from
    in
    let candidate = ref resume in
    let i = ref (floor_index t resume + 1) in
    (* invariant: usage is <= limit on [candidate, times.(i)) *)
    if !i > 0 && t.usage.(!i - 1) > limit then begin
      (* the segment containing [resume] is too full: jump to the next step
         where usage drops low enough *)
      while !i < t.n && t.usage.(!i) > limit do
        incr i
      done;
      candidate := (if !i < t.n then t.times.(!i) else t.times.(t.n - 1));
      incr i
    end;
    if !candidate > from then begin
      t.hint_from <- from;
      t.hint_limit <- limit;
      t.hint_to <- !candidate
    end;
    let result = ref None in
    while !result = None do
      if !i >= t.n || t.times.(!i) >= !candidate + duration then
        (* window [candidate, candidate+duration) is clear *)
        result := Some !candidate
      else if t.usage.(!i) > limit then begin
        (* violation inside the window: restart after the congestion *)
        while !i < t.n && t.usage.(!i) > limit do
          incr i
        done;
        candidate := (if !i < t.n then t.times.(!i) else t.times.(t.n - 1));
        incr i
      end
      else incr i
    done;
    Option.get !result
  end

let max_usage t =
  let peak = ref 0 in
  for i = 0 to t.n - 1 do
    if t.usage.(i) > !peak then peak := t.usage.(i)
  done;
  !peak

let steps t = List.init t.n (fun i -> (t.times.(i), t.usage.(i)))
