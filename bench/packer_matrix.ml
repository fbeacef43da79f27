(* Packer matrix: every registered packer variant head-to-head on the
   seeded synthetic suite, the checked-in data/p93791s.soc benchmark
   and three shared-wrapper instances where a variant beats best_fit —
   verified schedule quality and packs/sec — plus the incremental-
   repack engine measured against the old rebuild-everything-per-move
   behavior.

   Two gates (each fails the bench, and the bench-smoke CI job):
   - quality: no variant's Msoc_check-verified makespan may exceed
     best_fit's on any instance. Variants extend the best_fit
     portfolio with specialty orders, so a regression is a packer
     bug, not a heuristic trade-off. (The converse — every variant
     strictly wins somewhere — is checked by CI on the JSON's per-row
     vs_best_fit.)
   - incremental: over a seeded transposition walk, the engine must
     perform at least 2x fewer full interval-state rebuilds than one
     per proposal (what the pre-engine anneal did):
     2 * full_rebuilds <= proposals.

   Writes BENCH_packer_matrix.json so CI can archive the numbers.

   Environment knobs (for the CI smoke run):
     MSOC_PACKER_BENCH_REPEATS  timed packs per (instance, variant)
                                (default 3)
     MSOC_PACKER_BENCH_MOVES    proposals in the transposition walk
                                (default 200) *)

module Table = Msoc_util.Ascii_table
module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Export = Msoc_testplan.Export
module Instances = Msoc_testplan.Instances
module Synthetic = Msoc_itc02.Synthetic
module Soc_file = Msoc_itc02.Soc_file
module Sharing = Msoc_analog.Sharing
module Job = Msoc_tam.Job
module Packer = Msoc_tam.Packer
module Registry = Msoc_tam.Packer_registry
module Schedule = Msoc_tam.Schedule
module Schedule_check = Msoc_check.Schedule_check
module Diagnostic = Msoc_check.Diagnostic

let header title = Printf.printf "\n=== %s ===\n\n" title

let env_int name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)

(* --- instance suite ------------------------------------------------ *)

(* Full job sets (digital cores + analog tests under no sharing, the
   largest rectangle population a plan ever packs) so the heuristics
   are compared where order actually matters. *)
let jobs_of_problem problem analog =
  Evaluate.jobs_for_problem problem (Sharing.no_sharing analog)

let synthetic_instance ~seed ~n_cores ~bottleneck ~m ~width name =
  let profile =
    { Synthetic.n_cores; target_area = 600_000; max_chains = 10; bottleneck }
  in
  let soc = Synthetic.generate ~seed ~name profile in
  let analog = Instances.scaled_analog ~n:m in
  let problem =
    Problem.make ~soc ~analog_cores:analog ~tam_width:width ~weight_time:0.5 ()
  in
  (name, width, jobs_of_problem problem analog)

let benchmark_soc () =
  (* dune exec runs from the project root; dune runtest would run from
     _build/default/bench — accept both, fall back to the generator so
     the bench never depends on the file being present. *)
  match
    List.find_opt Sys.file_exists [ "data/p93791s.soc"; "../data/p93791s.soc" ]
  with
  | Some path -> Soc_file.load path
  | None -> Synthetic.p93791s ()

(* A shared-wrapper job set: [groups] lists the analog labels per
   wrapper, singletons included. *)
let shared_instance ~soc ~analog ~groups ~width name =
  let problem =
    Problem.make ~soc ~analog_cores:analog ~tam_width:width ~weight_time:0.5 ()
  in
  let core label =
    List.find (fun (c : Msoc_analog.Spec.core) -> c.Msoc_analog.Spec.label = label) analog
  in
  let combination = Sharing.make (List.map (List.map core) groups) in
  (name, width, Evaluate.jobs_for_problem problem combination)

let instances () =
  let soc = benchmark_soc () in
  let p93791s width =
    let analog = Msoc_analog.Catalog.all in
    let problem =
      Problem.make ~soc ~analog_cores:analog ~tam_width:width ~weight_time:0.5
        ()
    in
    (Printf.sprintf "p93791s/W%d" width, width, jobs_of_problem problem analog)
  in
  [
    synthetic_instance ~seed:11 ~n_cores:4 ~bottleneck:false ~m:6 ~width:24
      "syn-s11";
    synthetic_instance ~seed:23 ~n_cores:6 ~bottleneck:false ~m:8 ~width:32
      "syn-s23";
    synthetic_instance ~seed:97 ~n_cores:4 ~bottleneck:true ~m:10 ~width:16
      "syn-s97";
    p93791s 24;
    p93791s 48;
  ]

(* Where the variants win: constrained on shared wrappers (its
   exclusion-degree order places the serial groups first), diagonal on
   a narrow strip with many analog cores. *)
let win_instances () =
  let catalog = Msoc_analog.Catalog.all in
  [
    shared_instance ~soc:(benchmark_soc ()) ~analog:catalog ~width:48
      ~groups:[ [ "A"; "B" ]; [ "C" ]; [ "D"; "E" ] ]
      "p93791s/W48{A,B}{D,E}";
    shared_instance ~soc:(Synthetic.p22810s ()) ~analog:catalog ~width:16
      ~groups:[ [ "A"; "B"; "C"; "D"; "E" ] ]
      "p22810s/W16{A,B,C,D,E}";
    (let analog = Instances.scaled_analog ~n:12 in
     let problem =
       Problem.make ~soc:(Synthetic.d281s ()) ~analog_cores:analog ~tam_width:12
         ~weight_time:0.5 ()
     in
     ("d281s-a12/W12", 12, jobs_of_problem problem analog));
  ]

(* --- quality / throughput matrix ----------------------------------- *)

let verify ~instance ~packer_name ~jobs schedule =
  match Schedule_check.run ~expected:jobs schedule with
  | [] -> ()
  | ds ->
    failwith
      (Printf.sprintf
         "packer-matrix: %s on %s failed Msoc_check verification:\n%s"
         packer_name instance
         (Diagnostic.render_text ds))

let matrix ~repeats ~note insts =
  let columns =
    [
      Table.column "instance";
      Table.column ~align:Table.Right "jobs";
      Table.column "packer";
      Table.column ~align:Table.Right "LB";
      Table.column ~align:Table.Right "makespan";
      Table.column ~align:Table.Right "vs best_fit";
      Table.column ~align:Table.Right "packs/s";
      Table.column "verified";
    ]
  in
  let regressions = ref [] in
  let rows =
    List.concat_map
      (fun (instance, width, jobs) ->
        let baseline = ref 0 in
        List.map
          (fun packer ->
            let pname = Registry.name packer in
            let schedule = Registry.pack packer ~width jobs in
            let t0 = Unix.gettimeofday () in
            for _ = 1 to repeats do
              ignore (Registry.pack packer ~width jobs)
            done;
            let dt = (Unix.gettimeofday () -. t0) /. float_of_int repeats in
            verify ~instance ~packer_name:pname ~jobs schedule;
            let ms = Schedule.makespan schedule in
            if pname = "best_fit" then baseline := ms
            else if ms > !baseline then
              regressions :=
                Printf.sprintf "%s on %s: %d > best_fit %d" pname instance ms
                  !baseline
                :: !regressions;
            let lb = Packer.lower_bound ~width jobs in
            note
              (Export.Object
                 [
                   ("instance", Export.String instance);
                   ("width", Export.Int width);
                   ("jobs", Export.Int (List.length jobs));
                   ("packer", Export.String pname);
                   ("lower_bound", Export.Int lb);
                   ("makespan", Export.Int ms);
                   ("vs_best_fit", Export.Int (ms - !baseline));
                   ("packs_per_s", Export.Float (1.0 /. dt));
                   ("verified", Export.Bool true);
                 ]);
            [
              instance;
              string_of_int (List.length jobs);
              pname;
              Table.int_cell lb;
              Table.int_cell ms;
              (if pname = "best_fit" then "-"
               else Printf.sprintf "%+d" (ms - !baseline));
              Table.float_cell ~decimals:1 (1.0 /. dt);
              "yes";
            ])
          Registry.all)
      insts
  in
  Table.print ~columns ~rows;
  !regressions

(* --- incremental engine vs rebuild-per-move ------------------------ *)

(* The anneal's inner loop, replayed deterministically: adjacent
   transpositions on a priority order, greedy acceptance. The
   pre-engine packer rebuilt the whole per-wire interval state once
   per proposal; the gate demands the engine halves that. *)
let incremental_walk ~moves ~note (instance, width, jobs) =
  let engine = Packer.prepare ~width () in
  let order = Array.of_list (List.hd (Packer.priority_orders jobs)) in
  let n = Array.length order in
  let rng = Random.State.make [| 0x9e3779b9; width; n |] in
  let pack () =
    Schedule.makespan (Packer.repack_with_order engine (Array.to_list order))
  in
  let best = ref (pack ()) in
  let accepted = ref 0 in
  let proposals = if n < 2 then 0 else moves in
  for _ = 1 to proposals do
    let i = Random.State.int rng (n - 1) in
    let tmp = order.(i) in
    order.(i) <- order.(i + 1);
    order.(i + 1) <- tmp;
    let ms = pack () in
    if ms <= !best then begin
      best := ms;
      incr accepted
    end
    else begin
      let tmp = order.(i) in
      order.(i) <- order.(i + 1);
      order.(i + 1) <- tmp
    end
  done;
  let stats = Packer.repack_stats engine in
  note
    (Export.Object
       [
         ("instance", Export.String instance);
         ("width", Export.Int width);
         ("proposals", Export.Int proposals);
         ("accepted", Export.Int !accepted);
         ("repacks", Export.Int stats.Packer.repacks);
         ("full_rebuilds", Export.Int stats.Packer.full_rebuilds);
         ("jobs_reused", Export.Int stats.Packer.jobs_reused);
         ("jobs_placed", Export.Int stats.Packer.jobs_placed);
       ]);
  let per_accepted =
    float_of_int stats.Packer.full_rebuilds
    /. float_of_int (max 1 !accepted)
  in
  let ok = 2 * stats.Packer.full_rebuilds <= proposals in
  ( [
      instance;
      string_of_int proposals;
      string_of_int !accepted;
      string_of_int stats.Packer.full_rebuilds;
      Table.float_cell ~decimals:3 per_accepted;
      string_of_int stats.Packer.jobs_reused;
      string_of_int stats.Packer.jobs_placed;
      (if ok then "yes" else "NO");
    ],
    ok )

let run () =
  header "Packer matrix: variants x instances, Msoc_check-verified";
  let repeats = max 1 (env_int "MSOC_PACKER_BENCH_REPEATS" 3) in
  let moves = max 10 (env_int "MSOC_PACKER_BENCH_MOVES" 200) in
  let insts = instances () in
  let matrix_rows = ref [] in
  let engine_rows = ref [] in
  let note j = matrix_rows := j :: !matrix_rows in
  let regressions = matrix ~repeats ~note insts in
  header "Packer matrix: shared-wrapper instances where a variant wins";
  let regressions = regressions @ matrix ~repeats ~note (win_instances ()) in
  header "Incremental repack vs one rebuild per proposal";
  let columns =
    [
      Table.column "instance";
      Table.column ~align:Table.Right "proposals";
      Table.column ~align:Table.Right "accepted";
      Table.column ~align:Table.Right "full rebuilds";
      Table.column ~align:Table.Right "rebuilds/accept";
      Table.column ~align:Table.Right "reused";
      Table.column ~align:Table.Right "placed";
      Table.column "2x gate";
    ]
  in
  let walks =
    List.map
      (incremental_walk ~moves ~note:(fun j -> engine_rows := j :: !engine_rows))
      insts
  in
  Table.print ~columns ~rows:(List.map fst walks);
  let incremental_ok = List.for_all snd walks in
  let doc =
    Export.Object
      [
        ("bench", Export.String "packer-matrix");
        ("repeats", Export.Int repeats);
        ("moves", Export.Int moves);
        ("packers", Export.List (List.map (fun s -> Export.String s) Registry.names));
        ("matrix", Export.List (List.rev !matrix_rows));
        ("incremental", Export.List (List.rev !engine_rows));
        ("quality_gate_ok", Export.Bool (regressions = []));
        ("incremental_gate_ok", Export.Bool incremental_ok);
      ]
  in
  let path = "BENCH_packer_matrix.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Export.pretty doc));
  Printf.printf
    "\nEvery schedule above was re-verified by Msoc_check.Schedule_check \
     before it counted. Wrote %s.\n"
    path;
  if regressions <> [] then
    failwith
      ("packer-matrix: variant makespan regressed vs best_fit:\n  "
      ^ String.concat "\n  " (List.rev regressions));
  if not incremental_ok then
    failwith
      "packer-matrix: incremental engine missed the 2x rebuild-reduction gate"
