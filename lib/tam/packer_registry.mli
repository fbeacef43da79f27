(** Registry of the compiled-in packer heuristics.

    A packer is its priority orders: every variant packs on the one
    {!Packer} engine and differs only in the candidate orders it
    hands to {!Packer.repack_orders}. Three variants today (see
    DESIGN.md §12 for the heuristics table):

    - [best_fit] — {!Packer.priority_orders}, the group-urgency /
      area / width rules of {!Packer.pack} (the default);
    - [diagonal] — diagonal-length priority (arXiv:1008.4446) over
      each job's most compact operating point, group-aware;
    - [constrained] — placement-exclusion aware (arXiv:1008.4448):
      jobs with the most conflict / exclusion / precedence relations
      place first.

    [diagonal] and [constrained] extend the [best_fit] portfolio with
    their specialty orders, so a registered variant's verified
    makespan is never worse than [best_fit] on any instance — the
    packer-matrix bench gates on exactly that invariant.

    Every schedule returned through {!pack} or {!repack} is certified
    by {!certify} before it reaches the caller. *)

type packer = {
  name : string;
      (** Registry key, also the CLI / protocol spelling (lowercase). *)
  orders : Job.t list -> Job.t list list;
      (** Candidate priority orders, each a permutation of the input;
          precedences are applied per order by the engine. Must
          return at least one order. *)
}
(** Holds a closure: compare packers by {!name}, never with [=]. *)

val all : packer list
(** Registration order: [best_fit], [diagonal], [constrained]. *)

val default : packer
(** [best_fit] — the variant every legacy entry point uses, so cache
    keys and schedules are unchanged when no packer is named. *)

val name : packer -> string

val names : string list
(** Valid [--packer] / protocol spellings, in registration order. *)

val find : string -> packer option
(** Case-insensitive, whitespace-trimmed lookup by {!name}. *)

val certify : packer:string -> jobs:Job.t list -> Schedule.t -> Schedule.t
(** [certify ~packer ~jobs s] returns [s] if it passes
    {!Schedule.check} and places exactly the labels of [jobs], each
    once.
    @raise Packer.Infeasible otherwise, naming [packer]. *)

val pack :
  packer -> ?power_budget:int -> width:int -> Job.t list -> Schedule.t
(** [pack p ~width jobs] is {!repack} on a fresh {!incremental}: the
    same engine code as the incremental path, from the empty prefix.
    @raise Packer.Infeasible on infeasible inputs, and also if
    {!certify} rejects the schedule (a packer bug surfaced, never
    silently returned). *)

type incremental
(** A reusable incremental-repack state for one variant on one fixed
    strip: one {!Packer.prepare} engine per priority order. Mutable
    and NOT thread-safe — one per domain. *)

val incremental : ?power_budget:int -> width:int -> packer -> incremental
(** @raise Invalid_argument if [width <= 0] or [power_budget <= 0]. *)

val repack : incremental -> Job.t list -> Schedule.t
(** Pack via the incremental engines, reusing each priority order's
    common prefix with the previous call, then {!certify}. *)
