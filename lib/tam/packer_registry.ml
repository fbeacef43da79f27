type packer = { name : string; orders : Job.t list -> Job.t list list }

(* A fixed, immutable registry: variants are compiled in, so lookup
   needs no locking and the set of valid [--packer] spellings is
   stable for CLI docs, protocol validation and cache keys. *)
let default = { name = "best_fit"; orders = Packer.priority_orders }

let all =
  [
    default;
    { name = "diagonal"; orders = Packer_diagonal.orders };
    { name = "constrained"; orders = Packer_constrained.orders };
  ]

let name p = p.name

let names = List.map name all

let find key =
  let key = String.lowercase_ascii (String.trim key) in
  List.find_opt (fun p -> p.name = key) all

(* Certification: whatever orders produced the schedule, it must pass
   the full invariant check and place exactly the requested jobs
   before it is handed to any caller. (The independent Msoc_check
   verifier re-checks again at the search/CLI/serve layers; this
   guard lives below that dependency boundary so even direct library
   users of a variant get a certified schedule.) *)
let certify ~packer ~jobs schedule =
  (match Schedule.check schedule with
  | [] -> ()
  | v :: _ ->
    raise
      (Packer.Infeasible
         (Format.asprintf "packer %s produced an invalid schedule: %a" packer
            Schedule.pp_violation v)));
  let labels l = List.sort compare l in
  let placed =
    labels
      (List.map
         (fun (p : Schedule.placement) -> p.Schedule.job.Job.label)
         schedule.Schedule.placements)
  in
  let wanted = labels (List.map (fun (j : Job.t) -> j.Job.label) jobs) in
  if placed <> wanted then
    raise
      (Packer.Infeasible
         (Printf.sprintf "packer %s lost or duplicated jobs in its schedule"
            packer));
  schedule

(* One {!Packer.prepare} engine per priority-order index: order [i] of
   consecutive [repack] calls diffs against order [i] of the previous
   call, which is where the common prefixes live (a search move
   perturbs the job set slightly, leaving each rule's sorted prefix
   largely intact). *)
type incremental = {
  packer : packer;
  width : int;
  power_budget : int option;
  mutable engines : Packer.prepared list;
}

let incremental ?power_budget ~width packer =
  (* Validate the strip eagerly, exactly like [Packer.prepare]. *)
  let first = Packer.prepare ?power_budget ~width () in
  { packer; width; power_budget; engines = [ first ] }

let repack inc jobs =
  let orders = inc.packer.orders jobs in
  let needed = List.length orders in
  let have = List.length inc.engines in
  if have < needed then
    inc.engines <-
      inc.engines
      @ List.init (needed - have) (fun _ ->
            Packer.prepare ?power_budget:inc.power_budget ~width:inc.width ());
  let engines = List.filteri (fun i _ -> i < needed) inc.engines in
  certify ~packer:inc.packer.name ~jobs (Packer.repack_orders engines orders)

let pack packer ?power_budget ~width jobs =
  repack (incremental ?power_budget ~width packer) jobs
