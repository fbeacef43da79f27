(* cosim_die: one Monte-Carlo die per op — its variation drawn once,
   then the seven Table-2 spec programs run through the event engine
   (the Fig. 5 loop plus DSP extraction). Touches none of the planner. *)

module Variation = Msoc_mixedsig.Variation
module Testbench = Msoc_cosim.Testbench
module Engine = Msoc_cosim.Engine

(* The dies are trials 1..dies of one master seed; the run's seed
   orders them. reference.txt stores every die's results. *)
let master = 2005

let dies = 48

let reference_file = "perfbench/reference.txt"

let specs = Array.of_list Testbench.specs

let span_names = Array.map (fun s -> "spec." ^ Testbench.spec_name s) specs

let events (r : Testbench.result) =
  r.Testbench.trace.Engine.dac_events + r.Testbench.trace.Engine.adc_events
  + r.Testbench.trace.Engine.analog_advances

let run_die ?(span = fun _ f -> f ()) trial =
  let v = Variation.sample ~master ~trial () in
  let config = Testbench.with_variation v Testbench.default in
  Array.mapi (fun s spec -> span span_names.(s) (fun () -> Testbench.run ~config spec)) specs

(* One line per (die, spec): trial, spec, measured, direct, events. *)
let line trial (r : Testbench.result) =
  Printf.sprintf "%d %s %h %h %d" trial
    (Testbench.spec_name r.Testbench.spec)
    r.Testbench.measured r.Testbench.direct (events r)

let emit_reference () =
  for trial = 1 to dies do
    Array.iter (fun r -> print_endline (line trial r)) (run_die trial)
  done

let load_reference () =
  let table = Hashtbl.create (dies * Array.length specs) in
  In_channel.with_open_text reference_file (fun ic ->
      In_channel.input_all ic |> String.split_on_char '\n'
      |> List.iter (fun l ->
             match String.split_on_char ' ' l with
             | trial :: spec :: _ -> Hashtbl.replace table (int_of_string trial, spec) l
             | _ -> ()));
  table

let setup trace ~seed =
  let reference = load_reference () in
  if Hashtbl.length reference <> dies * Array.length specs then
    failwith (reference_file ^ ": incomplete");
  let next = Harness.cycles (Random.State.make [| seed; 3 |]) dies in
  let trial = ref 1 and ops = ref 0 and total_events = ref 0 in
  (* Results agree with the stored reference to 1e-9 relative: exact
     event counts, floats allowing only a reordered final rounding. *)
  let matches trial (r : Testbench.result) =
    match
      String.split_on_char ' '
        (Hashtbl.find reference (trial, Testbench.spec_name r.Testbench.spec))
    with
    | [ _; _; measured; direct; n ] ->
      let close x ref_text =
        let y = float_of_string ref_text in
        Float.abs (x -. y) <= 1e-9 *. Float.max 1e-300 (Float.abs y)
      in
      close r.Testbench.measured measured
      && close r.Testbench.direct direct
      && events r = int_of_string n
    | _ -> false
  in
  (* warm-up: the first dies, untimed, checked like the timed ones *)
  let warm_up_ok =
    List.for_all (fun trial -> Array.for_all (matches trial) (run_die trial)) [ 1; 2; 3 ]
  in
  let run () =
    let trial = !trial in
    let results = run_die ~span:(Trace.span trace) trial in
    incr ops;
    Array.iter (fun r -> total_events := !total_events + events r) results;
    fun () -> Array.for_all (matches trial) results
  in
  let counts () =
    [
      Harness.metric "cosim.events_per_op" "count"
        (float_of_int !total_events /. float_of_int (max 1 !ops));
    ]
  in
  {
    Harness.stage = (fun i -> trial := 1 + next i);
    run;
    probe = ignore;
    counts;
    finish =
      (fun () -> if warm_up_ok then [] else [ "a warm-up die differs from the reference" ]);
    close = ignore;
  }

let workload =
  {
    Harness.name = "cosim_die";
    tail_pct = 95.0;
    window = dies;
    exact = [ "cosim.events_per_op" ];
    setup;
  }
