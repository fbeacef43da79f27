(** Placement-exclusion aware packing (arXiv:1008.4448): jobs with
    the most placement-exclusion relations — declared conflicts,
    exclusion-group peers, precedence edges — place first, before
    their placement freedom evaporates; the [best_fit] rules stay in
    the portfolio as fallback orders. Registered as ["constrained"]
    in {!Packer_registry}. *)

val orders : Job.t list -> Job.t list list
(** The specialty orders followed by {!Packer.priority_orders}. *)

val constraint_degree : Job.t list -> Job.t -> int
(** Number of placement-exclusion relations the job participates in
    within this job set. Exposed for tests. *)
