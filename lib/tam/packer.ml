module Pareto = Msoc_wrapper.Pareto

exception Infeasible of string

(* Sorted, disjoint busy intervals [start, finish). *)
module Intervals = struct
  type t = (int * int) list

  let empty : t = []

  let to_list t = t

  let free_during t ~start ~finish =
    List.for_all (fun (s, f) -> finish <= s || f <= start) t

  (* Insert a busy window, merging with a touching neighbour on either
     side so the list keeps one entry per maximal busy stretch — the
     candidate-start lists built from interval ends then stay bounded
     by the number of idle gaps instead of growing with every
     placement. Callers only add windows that passed [free_during], so
     the new window never overlaps an existing entry. *)
  let add t ~start ~finish =
    let rec insert = function
      | [] -> [ (start, finish) ]
      | (s, f) :: rest when f < start -> (s, f) :: insert rest
      | (s, f) :: rest when f = start -> absorb s finish rest
      | rest -> absorb start finish rest
    and absorb s f = function
      | (s2, f2) :: rest when s2 = f -> (s, f2) :: rest
      | rest -> (s, f) :: rest
    in
    insert t

  let ends_after t ~time =
    List.filter_map (fun (_, f) -> if f >= time then Some f else None) t
end

module Smap = Map.Make (String)

(* Persistent packing state: one snapshot per placed job, so the
   incremental engine ([prepare] / [repack_with_order]) can resume
   from any prefix of a previous order without replaying it. The wire
   array is copied on write (strip widths are small); everything else
   is already a persistent structure. *)
type pstate = {
  p_wires : Intervals.t array;  (* never mutated: copy-on-write *)
  p_groups : (int * Intervals.t) list;
  (* committed placements as (start, finish, power) for the budget *)
  p_powered : (int * int * int) list;
  p_power_budget : int option;
  (* label -> finish time of already-scheduled jobs *)
  p_finished : int Smap.t;
  (* label -> busy interval of the placed job with that label *)
  p_placed : (int * int) Smap.t;
  (* label of a FUTURE job -> intervals already reserved against it by
     placed jobs that declared the conflict *)
  p_reserved : (int * int) list Smap.t;
}

let initial_state ?power_budget ~width () =
  {
    p_wires = Array.make width Intervals.empty;
    p_groups = [];
    p_powered = [];
    p_power_budget = power_budget;
    p_finished = Smap.empty;
    p_placed = Smap.empty;
    p_reserved = Smap.empty;
  }

let group_intervals st = function
  | None -> Intervals.empty
  | Some g -> Option.value (List.assoc_opt g st.p_groups) ~default:Intervals.empty

(* Peak concurrent power of committed placements within [start, finish):
   piecewise constant, so evaluating at interval starts suffices. *)
let peak_power_within st ~start ~finish =
  let instants =
    start
    :: List.filter_map
         (fun (s, _, _) -> if start < s && s < finish then Some s else None)
         st.p_powered
  in
  let at instant =
    List.fold_left
      (fun acc (s, f, p) -> if s <= instant && instant < f then acc + p else acc)
      0 st.p_powered
  in
  List.fold_left (fun acc i -> max acc (at i)) 0 instants

(* Earliest start at which [w] wires are simultaneously free for
   [time] cycles, the job's exclusion group is idle, the power budget
   holds and all predecessors (already scheduled) are done. The
   earliest feasible start is [floor] or the end of some busy/powered
   interval, so only those candidates need checking. *)
let conflict_intervals st job =
  let declared =
    List.filter_map (fun l -> Smap.find_opt l st.p_placed) job.Job.conflicts
  in
  let reserved =
    Option.value (Smap.find_opt job.Job.label st.p_reserved) ~default:[]
  in
  declared @ reserved

let earliest_placement st ~total_width ~w ~time ~group ~power ~floor ~blocked =
  let giv = group_intervals st group in
  let candidates =
    let wire_ends =
      Array.to_list st.p_wires
      |> List.concat_map (fun iv -> Intervals.ends_after iv ~time:0)
    in
    let group_ends = Intervals.ends_after giv ~time:0 in
    let power_ends = List.map (fun (_, f, _) -> f) st.p_powered in
    let blocked_ends = List.map snd blocked in
    List.sort_uniq compare (floor :: (wire_ends @ group_ends @ power_ends @ blocked_ends))
    |> List.filter (fun s -> s >= floor)
  in
  let feasible_at start =
    let finish = start + time in
    if not (Intervals.free_during giv ~start ~finish) then None
    else if
      List.exists (fun (s, f) -> start < f && s < finish) blocked
    then None
    else if
      match st.p_power_budget with
      | Some budget when power > 0 ->
        peak_power_within st ~start ~finish + power > budget
      | Some _ | None -> false
    then None
    else begin
      let free = ref [] in
      let n = ref 0 in
      for i = total_width - 1 downto 0 do
        if Intervals.free_during st.p_wires.(i) ~start ~finish then begin
          free := i :: !free;
          incr n
        end
      done;
      if !n >= w then Some (start, !free) else None
    end
  in
  let rec scan = function
    | [] -> assert false (* past every busy end everything is idle *)
    | start :: rest -> (
      match feasible_at start with
      | Some (start, free_wires) -> (start, free_wires)
      | None -> scan rest)
  in
  scan candidates

(* Among the wires free during the window, keep the [w] whose previous
   busy interval ends latest (least idle created in front of the job). *)
let choose_wires st ~start ~w free_wires =
  let slack wire =
    let prev_end =
      List.fold_left
        (fun acc (_, f) -> if f <= start then max acc f else acc)
        0 st.p_wires.(wire)
    in
    start - prev_end
  in
  let ranked =
    List.map (fun wire -> (slack wire, wire)) free_wires
    |> List.sort compare
  in
  List.filteri (fun i _ -> i < w) ranked |> List.map snd

module Iset = Set.Make (Int)

(* Reorder so that predecessors come before their dependents while
   otherwise preserving the priority order: a label-keyed Kahn
   topological sort that, at every step, emits the ready job earliest
   in the input order — exactly the sequence the old O(n²)
   partition-and-rescan loop produced, in O(n + e) set operations. *)
let respect_precedences order =
  match order with
  | [] -> []
  | _ ->
    let jobs = Array.of_list order in
    let n = Array.length jobs in
    let index = Hashtbl.create (2 * n) in
    Array.iteri
      (fun i j ->
        if Hashtbl.mem index j.Job.label then
          raise
            (Infeasible (Printf.sprintf "duplicate job label: %s" j.Job.label));
        Hashtbl.add index j.Job.label i)
      jobs;
    let indegree = Array.make n 0 in
    let successors = Array.make n [] in
    Array.iteri
      (fun i j ->
        List.iter
          (fun pred ->
            (* Self-loops and unknown predecessors keep the job's
               indegree positive forever: it lands in the blocked set
               below, like any cycle member. *)
            indegree.(i) <- indegree.(i) + 1;
            match Hashtbl.find_opt index pred with
            | Some p when p <> i -> successors.(p) <- i :: successors.(p)
            | Some _ | None -> ())
          j.Job.predecessors)
      jobs;
    let ready = ref Iset.empty in
    Array.iteri
      (fun i _ -> if indegree.(i) = 0 then ready := Iset.add i !ready)
      jobs;
    let result = ref [] in
    let emitted = ref 0 in
    while not (Iset.is_empty !ready) do
      let i = Iset.min_elt !ready in
      ready := Iset.remove i !ready;
      result := jobs.(i) :: !result;
      incr emitted;
      List.iter
        (fun s ->
          indegree.(s) <- indegree.(s) - 1;
          if indegree.(s) = 0 then ready := Iset.add s !ready)
        successors.(i)
    done;
    if !emitted < n then begin
      let blocked = ref [] in
      for i = n - 1 downto 0 do
        if indegree.(i) > 0 then blocked := jobs.(i).Job.label :: !blocked
      done;
      raise
        (Infeasible
           (Printf.sprintf "precedence cycle or unknown predecessor among: %s"
              (String.concat ", " !blocked)))
    end;
    List.rev !result

(* Place one job on the earliest feasible window, returning the grown
   state alongside the placement. Pure in [st]: the incremental engine
   checkpoints these states per position. *)
let place ~width st job =
  let points =
    Pareto.points job.Job.staircase
    |> List.filter (fun (p : Pareto.point) -> p.width <= width)
  in
  if points = [] then
    (* [pack] pre-checks this, but guard the internal entry point
       too: silently packing an out-of-bounds rectangle would defeat
       every capacity invariant downstream. *)
    raise
      (Infeasible
         (Printf.sprintf
            "job %s has no operating point at width <= %d (narrowest needs %d wires)"
            job.Job.label width (Job.min_width job)));
  let floor =
    List.fold_left
      (fun acc pred ->
        match Smap.find_opt pred st.p_finished with
        | Some f -> max acc f
        | None -> acc (* respect_precedences guarantees presence *))
      0 job.Job.predecessors
  in
  let blocked = conflict_intervals st job in
  let candidate (p : Pareto.point) =
    let start, free_wires =
      earliest_placement st ~total_width:width ~w:p.width ~time:p.time
        ~group:job.Job.exclusion ~power:job.Job.power ~floor ~blocked
    in
    (start + p.time, p, start, free_wires)
  in
  let best =
    match List.map candidate points with
    | [] -> assert false (* guarded above *)
    | c :: rest ->
      List.fold_left
        (fun ((bf, bp, _, _) as b) ((f, p, _, _) as c) ->
          if f < bf || (f = bf && p.Pareto.width < bp.Pareto.width) then c else b)
        c rest
  in
  let _, point, start, free_wires = best in
  let wires = choose_wires st ~start ~w:point.Pareto.width free_wires in
  let finish = start + point.Pareto.time in
  let p_wires = Array.copy st.p_wires in
  List.iter
    (fun wire -> p_wires.(wire) <- Intervals.add p_wires.(wire) ~start ~finish)
    wires;
  let p_groups =
    match job.Job.exclusion with
    | Some g ->
      (g, Intervals.add (group_intervals st (Some g)) ~start ~finish)
      :: List.remove_assoc g st.p_groups
    | None -> st.p_groups
  in
  let p_powered =
    if job.Job.power > 0 then (start, finish, job.Job.power) :: st.p_powered
    else st.p_powered
  in
  let p_reserved =
    List.fold_left
      (fun acc other ->
        let existing = Option.value (Smap.find_opt other acc) ~default:[] in
        Smap.add other ((start, finish) :: existing) acc)
      st.p_reserved job.Job.conflicts
  in
  let st' =
    {
      st with
      p_wires;
      p_groups;
      p_powered;
      p_finished = Smap.add job.Job.label finish st.p_finished;
      p_placed = Smap.add job.Job.label (start, finish) st.p_placed;
      p_reserved;
    }
  in
  (st', { Schedule.job; start; width = point.Pareto.width; time = point.Pareto.time; wires })

(* Process-wide interval-state accounting, bumped by every engine
   repack — one-shot packs included, since they are repacks on a fresh
   engine. [full_rebuilds] counts repacks that placed jobs with an
   empty cached prefix; [jobs_reused] counts placements served from an
   engine's checkpoints instead of being replayed. Atomics so pool
   workers and benches can read deltas from any domain. *)
type repack_stats = {
  repacks : int;
  full_rebuilds : int;
  jobs_reused : int;
  jobs_placed : int;
}

let stats_zero = { repacks = 0; full_rebuilds = 0; jobs_reused = 0; jobs_placed = 0 }

let total_repacks = Atomic.make 0
let total_full_rebuilds = Atomic.make 0
let total_jobs_reused = Atomic.make 0
let total_jobs_placed = Atomic.make 0

let repack_totals () =
  {
    repacks = Atomic.get total_repacks;
    full_rebuilds = Atomic.get total_full_rebuilds;
    jobs_reused = Atomic.get total_jobs_reused;
    jobs_placed = Atomic.get total_jobs_placed;
  }

let schedule_of_placements ?power_budget ~width placements_rev =
  let placements =
    List.sort (fun a b -> compare a.Schedule.start b.Schedule.start) placements_rev
  in
  { Schedule.total_width = width; power_budget; placements }

let validate_strip ?power_budget ~width () =
  if width <= 0 then invalid_arg "Packer: width must be positive";
  match power_budget with
  | Some b when b <= 0 -> invalid_arg "Packer: power_budget must be positive"
  | Some _ | None -> ()

let validate_jobs ?power_budget ~width jobs =
  List.iter
    (fun j ->
      if Job.min_width j > width then
        raise
          (Infeasible
             (Printf.sprintf "job %s needs width %d > TAM width %d" j.Job.label
                (Job.min_width j) width));
      match power_budget with
      | Some b when j.Job.power > b ->
        raise
          (Infeasible
             (Printf.sprintf "job %s needs power %d > budget %d" j.Job.label
                j.Job.power b))
      | Some _ | None -> ())
    jobs

(* --- the packing engine ---------------------------------------------- *)

(* The engine caches the last effective order together with one state
   checkpoint per position: [e_states.(i)] is the state before placing
   [e_order.(i)] (so [e_states.(0)] is the empty strip). A repack
   diffs the new effective order against the cached one and replays
   only the suffix after the longest common prefix — an annealer's
   transposition at positions (i, j) keeps min(i, j) placements for
   free, and a fresh engine packs from the empty prefix. NOT
   thread-safe: one engine per domain. *)
type prepared = {
  e_width : int;
  e_power_budget : int option;
  mutable e_order : Job.t array;
  mutable e_states : pstate array;
  mutable e_placements : Schedule.placement array;
  mutable e_stats : repack_stats;
}

let prepare ?power_budget ~width () =
  validate_strip ?power_budget ~width ();
  {
    e_width = width;
    e_power_budget = power_budget;
    e_order = [||];
    e_states = [| initial_state ?power_budget ~width () |];
    e_placements = [||];
    e_stats = stats_zero;
  }

let repack_stats e = e.e_stats

let repack_with_order e jobs =
  validate_jobs ?power_budget:e.e_power_budget ~width:e.e_width jobs;
  let order = Array.of_list (respect_precedences jobs) in
  let n = Array.length order in
  let prev = e.e_order in
  let limit = min n (Array.length prev) in
  let k = ref 0 in
  (* Jobs are pure data (label, staircase points, constraint lists),
     so structural equality is the right prefix test; the physical
     check just short-circuits the common case. *)
  while !k < limit && (order.(!k) == prev.(!k) || order.(!k) = prev.(!k)) do
    incr k
  done;
  let k = !k in
  let states = Array.make (n + 1) e.e_states.(0) in
  Array.blit e.e_states 0 states 0 (k + 1);
  let placements = Array.make n None in
  for i = 0 to k - 1 do
    placements.(i) <- Some e.e_placements.(i)
  done;
  let st = ref states.(k) in
  for i = k to n - 1 do
    let st', pl = place ~width:e.e_width !st order.(i) in
    states.(i + 1) <- st';
    placements.(i) <- Some pl;
    st := st'
  done;
  let placements =
    Array.map (function Some p -> p | None -> assert false (* i < n filled above *)) placements
  in
  e.e_order <- order;
  e.e_states <- states;
  e.e_placements <- placements;
  (* An empty job list places nothing, so it rebuilds nothing. *)
  let rebuilt = if k = 0 && n > 0 then 1 else 0 in
  e.e_stats <-
    {
      repacks = e.e_stats.repacks + 1;
      full_rebuilds = e.e_stats.full_rebuilds + rebuilt;
      jobs_reused = e.e_stats.jobs_reused + k;
      jobs_placed = e.e_stats.jobs_placed + (n - k);
    };
  Atomic.incr total_repacks;
  ignore (Atomic.fetch_and_add total_full_rebuilds rebuilt);
  ignore (Atomic.fetch_and_add total_jobs_reused k);
  ignore (Atomic.fetch_and_add total_jobs_placed (n - k));
  let placements_rev = Array.fold_left (fun acc p -> p :: acc) [] placements in
  schedule_of_placements ?power_budget:e.e_power_budget ~width:e.e_width
    placements_rev

(* The one best-of-orders fold: keep the first schedule with the
   strictly smallest makespan, so ties go to the earlier order and a
   portfolio that prepends orders to another never loses to it. *)
let repack_orders engines orders =
  match List.map2 repack_with_order engines orders with
  | [] -> invalid_arg "Packer.repack_orders: no priority order"
  | s :: rest ->
    List.fold_left
      (fun best s ->
        if Schedule.makespan s < Schedule.makespan best then s else best)
      s rest

(* A job bound to an exclusion group inherits the group's total serial
   time as its urgency: the group is in effect one long serial job and
   must start early, even though each member test is short. *)
let group_urgency jobs =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun j ->
      match j.Job.exclusion with
      | Some g ->
        let current = Option.value (Hashtbl.find_opt totals g) ~default:0 in
        Hashtbl.replace totals g (current + Job.min_time j)
      | None -> ())
    jobs;
  fun j ->
    match j.Job.exclusion with
    | Some g -> Hashtbl.find totals g
    | None -> Job.min_time j

(* Greedy list scheduling is sensitive to the job order, so the
   default packer tries a few natural priority rules and keeps the
   best schedule: longest (group-aware) first, largest area first, and
   widest first (which wins when one wide bottleneck rectangle must
   nest under the narrow analog chains). *)
let priority_orders jobs =
  let urgency = group_urgency jobs in
  let by key = List.sort (fun a b -> compare (key b) (key a)) jobs in
  [
    by (fun j -> (urgency j, Job.min_time j));
    by (fun j -> (Job.area j, urgency j));
    by (fun j -> (Job.min_width j, urgency j));
  ]

(* A one-shot pack is a repack from the empty prefix: one fresh engine
   per priority order. *)
let pack ?power_budget ~width jobs =
  let orders = priority_orders jobs in
  repack_orders (List.map (fun _ -> prepare ?power_budget ~width ()) orders) orders

(* [front] is newest-first: the most recently promoted label must lead
   the repack order, so it gets the smallest rank. *)
let promotion_order ~front jobs =
  let ranks = List.mapi (fun i l -> (l, i)) front in
  let rank j =
    match List.assoc_opt j.Job.label ranks with
    | Some i -> i
    | None -> List.length front
  in
  let urgency = group_urgency jobs in
  List.sort
    (fun a b ->
      match compare (rank a) (rank b) with
      | 0 -> compare (urgency b, Job.min_time b) (urgency a, Job.min_time a)
      | c -> c)
    jobs

(* Promote the job that currently finishes last to the front of the
   priority order and repack; repeat while it helps. The critical job
   is the one whose placement freedom matters most, so scheduling it
   first usually removes the overhang. *)
let pack_optimized ?power_budget ?(rounds = 8) ~width jobs =
  let initial = pack ?power_budget ~width jobs in
  let engine = prepare ?power_budget ~width () in
  let rec refine best order_front remaining =
    if remaining = 0 then best
    else
      let critical =
        List.fold_left
          (fun acc (p : Schedule.placement) ->
            match acc with
            | Some (best_p : Schedule.placement)
              when Schedule.finish best_p >= Schedule.finish p ->
              acc
            | _ -> Some p)
          None best.Schedule.placements
      in
      match critical with
      | None -> best
      | Some p ->
        let label = p.Schedule.job.Job.label in
        if List.mem label order_front then best
        else begin
          let order_front = label :: order_front in
          let candidate =
            repack_with_order engine (promotion_order ~front:order_front jobs)
          in
          let best =
            if Schedule.makespan candidate < Schedule.makespan best then candidate
            else best
          in
          refine best order_front (remaining - 1)
        end
  in
  refine initial [] rounds

let anneal ?power_budget ?(seed = 1) ?(iterations = 150) ~width jobs =
  let best = ref (pack_optimized ?power_budget ~width jobs) in
  if jobs = [] then !best
  else begin
    let rng = Msoc_util.Rng.create ~seed in
    let urgency = group_urgency jobs in
    (* current state: an explicit priority order (array of jobs) *)
    let order =
      Array.of_list
        (List.sort
           (fun a b -> compare (urgency b, Job.min_time b) (urgency a, Job.min_time a))
           jobs)
    in
    let n = Array.length order in
    (* One engine across all transpositions: a swap at (i, j) replays
       only from position min(i, j), instead of rebuilding the whole
       per-wire interval state as the old per-move pack did. *)
    let engine = prepare ?power_budget ~width () in
    let pack_order () = repack_with_order engine (Array.to_list order) in
    let current = ref (Schedule.makespan (pack_order ())) in
    let span0 = float_of_int !current in
    let temperature k =
      (* geometric cooling from 2% of the initial makespan *)
      0.02 *. span0 *. Float.pow 0.97 (float_of_int k)
    in
    for k = 1 to iterations do
      if n >= 2 then begin
        let i = Msoc_util.Rng.int rng ~bound:n in
        let j = Msoc_util.Rng.int rng ~bound:n in
        if i <> j then begin
          let tmp = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- tmp;
          let candidate = pack_order () in
          let span = Schedule.makespan candidate in
          let accept =
            span <= !current
            || Msoc_util.Rng.float rng ~bound:1.0
               < Float.exp (-.float_of_int (span - !current) /. Float.max 1.0 (temperature k))
          in
          if accept then begin
            current := span;
            if span < Schedule.makespan !best then best := candidate
          end
          else begin
            (* undo the transposition *)
            let tmp = order.(i) in
            order.(i) <- order.(j);
            order.(j) <- tmp
          end
        end
      end
    done;
    !best
  end

let lower_bound ?power_budget ~width jobs =
  let area = List.fold_left (fun acc j -> acc + Job.area j) 0 jobs in
  let area_bound = Msoc_util.Numeric.ceil_div area width in
  let bottleneck = List.fold_left (fun acc j -> max acc (Job.min_time j)) 0 jobs in
  let group_times =
    List.filter_map (fun j -> Option.map (fun g -> (g, Job.min_time j)) j.Job.exclusion) jobs
    |> Msoc_util.Combinat.group_by fst
    |> List.map (fun (_, xs) -> Msoc_util.Numeric.sum_int (List.map snd xs))
  in
  let group_bound = List.fold_left max 0 group_times in
  let power_bound =
    match power_budget with
    | None -> 0
    | Some budget ->
      let energy =
        List.fold_left (fun acc j -> acc + (j.Job.power * Job.min_time j)) 0 jobs
      in
      Msoc_util.Numeric.ceil_div energy budget
  in
  max (max area_bound power_bound) (max bottleneck group_bound)
