(** Diagonal-length priority packing (arXiv:1008.4446): rectangles
    place in decreasing diagonal length of their most compact
    operating point, exclusion groups by the sum of member diagonals;
    the [best_fit] rules stay in the portfolio as fallback orders.
    Registered as ["diagonal"] in {!Packer_registry}. *)

val orders : Job.t list -> Job.t list list
(** The specialty orders followed by {!Packer.priority_orders}. *)

val diagonal : Job.t -> float
(** Diagonal length of the job's minimum-area Pareto point (0 for a
    degenerate empty staircase). Exposed for tests. *)
