(* plan_cold: the paper's own job, cold on every op as a CLI user pays
   it — build p93791m at W = 32, prepare, Cost_Optimizer (delta = 0),
   verify, export. *)

module Instances = Msoc_testplan.Instances
module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Plan = Msoc_testplan.Plan
module Export = Msoc_testplan.Export
module Verify = Msoc_check.Verify
module Diagnostic = Msoc_check.Diagnostic
module Sharing = Msoc_analog.Sharing
module Job = Msoc_tam.Job
module Packer = Msoc_tam.Packer
module Registry = Msoc_tam.Packer_registry

let width = 32

(* w_T in {0.1, ..., 0.9}: changes how many groups survive pruning. *)
let weights = Array.init 9 (fun k -> float_of_int (k + 1) /. 10.0)

let setup trace ~seed =
  let next = Harness.cycles (Random.State.make [| seed; 1 |]) (Array.length weights) in
  let k = ref 0 in
  (* weight index -> export of its first plan; repeats must match it *)
  let first = Hashtbl.create 9 in
  let ops = ref 0 and packs = ref 0 and evaluations = ref 0
  and considered = ref 0 and reused = ref 0 and placed = ref 0 in
  let run () =
    let span name f = Trace.span trace name f in
    let k = !k in
    let r0 = Packer.repack_totals () in
    let problem =
      span "build" (fun () ->
          Instances.p93791m ~weight_time:weights.(k) ~tam_width:width ())
    in
    let prepared = span "prepare" (fun () -> Evaluate.prepare problem) in
    let packs0 = Evaluate.total_packs () in
    let plan =
      span "search" (fun () ->
          Plan.run_prepared ~search:(Plan.Heuristic { delta = 0.0 }) prepared)
    in
    let packs1 = Evaluate.total_packs () in
    let diags = span "verify" (fun () -> Verify.plan plan) in
    let text = span "encode" (fun () -> Export.plan_to_string plan) in
    let r1 = Packer.repack_totals () in
    incr ops;
    packs := !packs + packs1 - packs0;
    evaluations := !evaluations + plan.Plan.evaluations;
    considered := !considered + plan.Plan.considered;
    reused := !reused + r1.Packer.jobs_reused - r0.Packer.jobs_reused;
    placed := !placed + r1.Packer.jobs_placed - r0.Packer.jobs_placed;
    fun () ->
      (not (Diagnostic.has_errors diags))
      &&
      match Hashtbl.find_opt first k with
      | Some s -> String.equal s text
      | None ->
        Hashtbl.replace first k text;
        true
  in
  let probe () =
    let problem = Instances.p93791m ~tam_width:width () in
    let cores = problem.Problem.soc.Msoc_itc02.Types.cores in
    ignore
      (Trace.span trace "prepare.wrapper" (fun () ->
           List.map (Job.of_core ~max_width:width) cores));
    let jobs =
      Evaluate.jobs_for_problem problem
        (Sharing.full_sharing problem.Problem.analog_cores)
    in
    ignore
      (Trace.span trace "prepare.refpack" (fun () ->
           Registry.pack Registry.default ~width jobs))
  in
  let counts () =
    let per_op x = float_of_int x /. float_of_int (max 1 !ops) in
    let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
    Harness.
      [
        metric "search.packs" "count" (per_op !packs);
        metric "search.evals_ratio" "ratio" (ratio !evaluations !considered);
        metric "pack.reused_frac" "ratio" (ratio !reused (!reused + !placed));
      ]
  in
  (* warm-up: three untimed plans, at the two ends and the middle of the
     weights, so that one set-up takes about a second *)
  let warm_up_ok =
    List.for_all
      (fun weight_time ->
        not
          (Diagnostic.has_errors
             (Verify.plan (Plan.run (Instances.p93791m ~weight_time ~tam_width:width ())))))
      [ 0.1; 0.5; 0.9 ]
  in
  {
    Harness.stage = (fun i -> k := next i);
    run;
    probe;
    counts;
    finish = (fun () -> if warm_up_ok then [] else [ "a warm-up plan fails Verify.plan" ]);
    close = ignore;
  }

let workload =
  {
    Harness.name = "plan_cold";
    tail_pct = 75.0;
    window = 2 * Array.length weights;
    exact = [ "search.packs"; "search.evals_ratio"; "pack.reused_frac" ];
    setup;
  }
