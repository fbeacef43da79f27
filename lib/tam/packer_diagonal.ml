(* Diagonal-length priority packing, after the diagonal-based
   rectangle bin-packing heuristic of arXiv:1008.4446: rectangles are
   placed in decreasing order of their diagonal length, which balances
   the two dimensions better than area or a single side when the
   instance mixes long-thin and near-square rectangles. A soft
   rectangle is ranked by the diagonal of its most compact
   (minimum-area) operating point; exclusion groups aggregate their
   members' diagonals the same way the default heuristic aggregates
   serial time, so a group of short tests still sorts as the long
   serial job it effectively is. The best_fit priority rules are kept
   as fallback orders: the variant can specialize without ever
   regressing the portfolio. *)

module Pareto = Msoc_wrapper.Pareto

let compact_point job =
  match Pareto.points job.Job.staircase with
  | [] -> None (* Job constructors reject degenerate points; be safe *)
  | p :: rest ->
    Some
      (List.fold_left
         (fun (best : Pareto.point) (q : Pareto.point) ->
           if q.width * q.time < best.width * best.time then q else best)
         p rest)

let diagonal job =
  match compact_point job with
  | None -> 0.0
  | Some p ->
    Float.sqrt
      (float_of_int ((p.Pareto.width * p.Pareto.width) + (p.Pareto.time * p.Pareto.time)))

(* Group-aware diagonal: members of an exclusion group serialize, so
   the group ranks by the sum of its members' diagonals. *)
let group_diagonal jobs =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun j ->
      match j.Job.exclusion with
      | Some g ->
        let current = Option.value (Hashtbl.find_opt totals g) ~default:0.0 in
        Hashtbl.replace totals g (current +. diagonal j)
      | None -> ())
    jobs;
  fun j ->
    match j.Job.exclusion with
    | Some g -> Hashtbl.find totals g
    | None -> diagonal j

let orders jobs =
  let gdiag = group_diagonal jobs in
  let by key = List.sort (fun a b -> compare (key b) (key a)) jobs in
  by (fun j -> (gdiag j, diagonal j, Job.min_time j))
  :: by (fun j -> (diagonal j, float_of_int (Job.area j)))
  :: Packer.priority_orders jobs
