(** Rectangle-packing TAM optimizer (flexible-width architecture).

    Implements the paper's scheduling substrate [6]: every job is a
    soft rectangle (it may run at any point of its Pareto staircase);
    the packer places rectangles on a strip of [width] TAM wires,
    minimizing the makespan subject to

    - at most [width] wires busy at any instant, with an explicit wire
      assignment (fork-and-merge, non-contiguous allowed);
    - jobs in the same exclusion group strictly serialized;
    - optionally, instantaneous power capped at [power_budget];
    - each job starting only after its {!Job.t.predecessors} finish.

    Heuristic: longest-processing-time-first over jobs (several
    priority rules are tried, the best schedule wins); per job, every
    staircase point is tried against the exact per-wire idle intervals
    and the placement finishing earliest wins (ties to fewer wires).
    Gap-aware: freed wire intervals remain usable by later jobs.

    There is one placement loop: the checkpoint engine
    ({!prepare} / {!repack_with_order}). A one-shot {!pack} is a
    repack from the empty prefix on a fresh engine per priority order,
    and {!repack_orders} is the single best-of-orders fold. Packer
    variants differ only in their priority orders; they are registered
    in {!Packer_registry}. *)

exception Infeasible of string
(** Raised when a job's minimum width exceeds the TAM width, a job's
    power alone exceeds the budget, two jobs carry the same label, or
    precedences form a cycle / reference unknown labels. Over-wide
    jobs are never clipped: a job whose narrowest Pareto point needs
    more wires than the TAM has is always rejected (with the offending
    label in the message), on every entry point including the internal
    repacks of {!anneal} and {!pack_optimized}. *)

(** Sorted, disjoint busy intervals [[start, finish)], one entry per
    maximal busy stretch: {!Intervals.add} merges touching neighbours
    on insert, keeping the candidate-start lists the placement scan
    derives from interval ends proportional to the number of idle
    gaps. Exposed for tests. *)
module Intervals : sig
  type t

  val empty : t

  val add : t -> start:int -> finish:int -> t
  (** Precondition (maintained by the packer, unchecked here): the new
      window overlaps no existing entry — it may touch one on either
      side, in which case the stretches coalesce. *)

  val free_during : t -> start:int -> finish:int -> bool

  val ends_after : t -> time:int -> int list
  (** Finish times [>= time] of the recorded stretches. *)

  val to_list : t -> (int * int) list
  (** The maximal busy stretches, sorted, pairwise disjoint and never
      touching. *)
end

val respect_precedences : Job.t list -> Job.t list
(** Stable topological reorder: predecessors before dependents, the
    priority order otherwise preserved (at every step the ready job
    earliest in the input order is emitted — Kahn with a min-index
    ready set, O(n + e)).
    @raise Infeasible on duplicate labels, precedence cycles or
    unknown predecessor labels. *)

val group_urgency : Job.t list -> Job.t -> int
(** Priority key used by the default heuristic: a job bound to an
    exclusion group inherits the group's total serial minimum time
    (the group packs like one long serial job), a free job its own
    minimum time. *)

val priority_orders : Job.t list -> Job.t list list
(** The default heuristic's priority rules — group-aware longest
    first, largest area first, widest first — as plain sorts of the
    input. Precedences are {e not} yet applied; the engine does that
    per order. *)

val pack : ?power_budget:int -> width:int -> Job.t list -> Schedule.t
(** [pack ~width jobs] is {!repack_orders} over one fresh engine per
    order of {!priority_orders}: every order is packed from the empty
    prefix and the first schedule with the smallest makespan wins.
    The result is feasible ({!Schedule.check} returns [[]]).
    @raise Infeasible as described above.
    @raise Invalid_argument if [width <= 0] or [power_budget <= 0]. *)

val promotion_order : front:string list -> Job.t list -> Job.t list
(** The priority order {!pack_optimized} repacks with: jobs whose
    labels appear in [front] first — [front] is newest-promotion-first
    and the newest promoted label leads the order — then the remaining
    jobs by the default urgency rule. Exposed for tests. *)

val pack_optimized :
  ?power_budget:int -> ?rounds:int -> width:int -> Job.t list -> Schedule.t
(** {!pack} followed by critical-job reordering: up to [rounds]
    (default 8) times, the job that finishes last is promoted to the
    front of the priority order and the strip is repacked; the best
    schedule wins. Never worse than {!pack}; typically buys a few
    percent on instances with one awkward rectangle. The refine rounds
    share one engine. *)

val anneal :
  ?power_budget:int ->
  ?seed:int ->
  ?iterations:int ->
  width:int ->
  Job.t list ->
  Schedule.t
(** Simulated annealing over the packing order: starting from
    {!pack_optimized}'s result, randomly transpose job priorities and
    accept worse schedules with Metropolis probability under a
    geometric cooling schedule ([iterations] moves, default 150;
    deterministic for a given [seed], default 1). Returns the best
    schedule seen — never worse than {!pack_optimized}. Use for final
    sign-off schedules where seconds of CPU buy cycles of test time;
    the optimizers use the fast packer. All moves share one engine,
    so a transposition replays only the order suffix it invalidated. *)

(** {2 The packing engine}

    An engine caches the last packed order with one packing-state
    checkpoint per position; {!repack_with_order} replays only the
    suffix after the longest common prefix with the cached order. The
    checkpoints are the states a replay from the empty strip would
    produce, so a repack is bit-identical to the same order on a
    fresh engine. Every pack in this module — {!pack},
    {!pack_optimized}'s refine rounds, {!anneal}'s transpositions —
    and the search-layer evaluators sit on this API. *)

type prepared
(** A reusable incremental-packing state for one fixed strip
    ([width], [power_budget]). Mutable and NOT thread-safe: use one
    engine per domain (pool workers pack on fresh engines of their
    own). *)

val prepare : ?power_budget:int -> width:int -> unit -> prepared
(** @raise Invalid_argument if [width <= 0] or [power_budget <= 0]. *)

val repack_with_order : prepared -> Job.t list -> Schedule.t
(** [repack_with_order e jobs] packs [jobs] in the given priority
    order (after {!respect_precedences}) on [e]'s strip, reusing the
    cached placements of the longest common prefix with the previous
    call.
    @raise Infeasible exactly as {!pack} would on the same jobs. *)

val repack_orders : prepared list -> Job.t list list -> Schedule.t
(** [repack_orders engines orders] repacks order [i] on engine [i]
    and keeps the first schedule with the strictly smallest makespan:
    ties go to the earlier order, so a portfolio that prepends orders
    to another can tie it but never lose to it.
    @raise Invalid_argument if [orders] is empty or the two lists
    differ in length. *)

type repack_stats = {
  repacks : int;
      (** {!repack_with_order} calls, one-shot packs included (one
          per priority order) *)
  full_rebuilds : int;
      (** repacks that placed jobs with an empty common prefix; an
          empty job list rebuilds nothing *)
  jobs_reused : int;  (** placements served from cached checkpoints *)
  jobs_placed : int;  (** placements actually (re)computed *)
}

val repack_stats : prepared -> repack_stats
(** This engine's counters since {!prepare}. *)

val repack_totals : unit -> repack_stats
(** Process-wide monotone totals across all engines, the fresh
    engines of one-shot packs included (maintained atomically).
    Benches read the delta around an optimization to show how many
    full interval-state rebuilds prefix reuse avoided. *)

val lower_bound : ?power_budget:int -> width:int -> Job.t list -> int
(** Max of the classic bounds: total-area / width, the largest
    single-job minimum time, each exclusion group's serial time (the
    paper's analog [T_LB]) and, when a budget is given, total
    power-time / budget. The packer's makespan never beats this;
    tests assert it stays within a small factor of it. *)
