(* Constraint-degree priority packing, after the constrained
   rectangle-packing formulation for SoC test scheduling of
   arXiv:1008.4448: rectangles carrying placement-exclusion relations
   (there, tests that may not overlap in time because they share
   resources) are the ones whose placement freedom evaporates first,
   so they are placed before unconstrained rectangles of comparable
   size. A job's constraint degree counts the placement-exclusion
   relations it participates in — declared conflicts (both
   directions), exclusion-group peers, and precedence edges (either
   end). Ties fall back to the default urgency rule, and the best_fit
   priority rules remain in the portfolio so the variant never
   regresses on unconstrained instances. *)

let constraint_degree jobs =
  let degree : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let bump label n =
    Hashtbl.replace degree label
      (n + Option.value (Hashtbl.find_opt degree label) ~default:0)
  in
  let group_sizes : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun j ->
      match j.Job.exclusion with
      | Some g ->
        Hashtbl.replace group_sizes g
          (1 + Option.value (Hashtbl.find_opt group_sizes g) ~default:0)
      | None -> ())
    jobs;
  List.iter
    (fun j ->
      (match j.Job.exclusion with
      | Some g -> bump j.Job.label (Hashtbl.find group_sizes g - 1)
      | None -> ());
      List.iter
        (fun pred ->
          bump j.Job.label 1;
          bump pred 1)
        j.Job.predecessors;
      List.iter
        (fun other ->
          bump j.Job.label 1;
          bump other 1)
        j.Job.conflicts)
    jobs;
  fun j -> Option.value (Hashtbl.find_opt degree j.Job.label) ~default:0

let orders jobs =
  let degree = constraint_degree jobs in
  let urgency = Packer.group_urgency jobs in
  let by key = List.sort (fun a b -> compare (key b) (key a)) jobs in
  by (fun j -> (degree j, urgency j, Job.min_time j))
  :: by (fun j -> (degree j, Job.area j))
  :: Packer.priority_orders jobs
