(* The repo benchmark: one closed-loop client on the main domain runs a
   seeded op sequence of one workload for --seconds of op time, checks
   every op, and prints one JSON result as its last line — end-to-end
   metrics untraced (--trace 0), per-layer metrics traced (--trace 1).
   Run from the repository root; see perfbench/README.md. *)

let workloads = [ Plan_cold.workload; Serve_hot.workload; Cosim_die.workload ]

(* Set-up runs this many times: once before the timed phase, giving the
   instance that is measured, and the rest spread evenly over it, so
   that the median set-up time sees the same host as the ops do. *)
let setup_reps = 7

let out_dir = "perfbench/_out"

(* Per-layer metrics: span self time in ms per span ("prepare" ->
   "prepare.ms", "handle.hit" -> "handle.hit_ms"), minor words in Mw per
   span, and the workloads' own counts. Every workload reports all of
   them; a layer it never enters reads 0. *)
let span_layers =
  [ "build"; "prepare"; "prepare.wrapper"; "prepare.refpack"; "search"; "verify";
    "encode"; "decode"; "handle.hit"; "handle.miss" ]
  @ Array.to_list Cosim_die.span_names

let ms_name n = if String.contains n '.' then n ^ "_ms" else n ^ ".ms"

let words_layers = [ "prepare"; "search"; "verify" ]

let count_layers =
  [ ("search.packs", "count"); ("search.evals_ratio", "ratio");
    ("pack.reused_frac", "ratio"); ("cache.hit_ratio", "ratio");
    ("serve.packs_timed", "count"); ("cosim.events_per_op", "count") ]

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Nearest rank: with n samples, at least n·(1 − p/100) lie above. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1))

(* Host calibration, timed about once a second during the run, outside
   the op clock, and printed beside the result; it is not a metric.
   [calibrate_cpu] is a fixed integer loop that touches no memory.
   [calibrate_memory] follows 200 000 links of one random cycle through
   a 4 MB array, larger than a core's L2, so every step waits on the
   shared cache or memory. A slower host moves them; a slower workload
   does not. The array adds 4 MB to every workload's peak_rss_mb. *)
let calibrate_cpu () =
  let t0 = now () in
  let x = ref 1 in
  for _ = 1 to 4_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x);
  now () -. t0

(* One random cycle (Sattolo's shuffle) through 2^20 int32 links, kept
   outside the OCaml heap so that it does not change how the GC paces
   the workload. *)
let chase_links =
  lazy
    (let n = 1 lsl 20 in
     let next = Bigarray.(Array1.create int32 c_layout n) in
     for k = 0 to n - 1 do
       next.{k} <- Int32.of_int k
     done;
     let rng = Random.State.make [| 7 |] in
     for k = n - 1 downto 1 do
       let j = Random.State.int rng k in
       let x = next.{k} in
       next.{k} <- next.{j};
       next.{j} <- x
     done;
     next)

let calibrate_memory () =
  let next = Lazy.force chase_links in
  let t0 = now () in
  let p = ref 0 in
  for _ = 1 to 200_000 do
    p := Int32.to_int (Bigarray.Array1.unsafe_get next !p)
  done;
  ignore (Sys.opaque_identity !p);
  now () -. t0

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
  |> Option.value ~default:0.0

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Exact-repeat check: the first run of a (binary, workload, seed,
   trace) stores its exact counts; every later run must reproduce them. *)
let exact_drift ~workload ~seed ~traced (exact : Harness.metric list) =
  let dir = Filename.concat out_dir "exact" in
  mkdir_p dir;
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-%s-%d-%d.txt"
         (Digest.to_hex (Digest.file Sys.executable_name))
         workload seed (Bool.to_int traced))
  in
  let text =
    String.concat ""
      (List.map (fun (m : Harness.metric) -> Printf.sprintf "%s %h\n" m.name m.value) exact)
  in
  if Sys.file_exists path then begin
    let stored = In_channel.with_open_text path In_channel.input_all in
    if String.equal stored text then []
    else [ Printf.sprintf "exact counts drifted from %s:\n%s" path text ]
  end
  else begin
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    []
  end

type samples = { mutable n : int; mutable a : float array }

let push s x =
  if s.n = Array.length s.a then s.a <- Array.append s.a (Array.make s.n 0.0);
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort compare a;
  a

let run (w : Harness.workload) ~seed ~seconds ~traced =
  let trace = Trace.create () in
  ignore (Lazy.force chase_links);
  let setups = ref [] in
  let set_up () =
    Gc.compact ();
    let t0 = now () in
    let i = w.setup trace ~seed in
    setups := (now () -. t0) :: !setups;
    Gc.compact ();
    i
  in
  (* a spare set-up outside the first: timed, then thrown away; its
     major collections are left out of gc.major_per_op *)
  let spare_majors = ref 0 in
  let spare_set_up () =
    let m0 = (Gc.quick_stat ()).Gc.major_collections in
    (set_up ()).close ();
    spare_majors := !spare_majors + (Gc.quick_stat ()).Gc.major_collections - m0
  in
  let inst = set_up () in
  let cpu = { n = 0; a = Array.make 64 0.0 } and memory = { n = 0; a = Array.make 64 0.0 } in
  let last_calibration = ref neg_infinity in
  let plain = { n = 0; a = Array.make 4096 0.0 }
  and spanned = { n = 0; a = Array.make 4096 0.0 } in
  let failed = ref 0 and busy = ref 0.0 and window_words = ref 0.0 in
  let window_counts = ref [] in
  let gc0 = Gc.quick_stat () in
  let i = ref 0 in
  while !busy < seconds || !i < max (Harness.min_ops w) w.window do
    inst.stage !i;
    (* a traced run traces every other op; the rest give the overhead *)
    let on = traced && !i land 1 = 1 in
    trace.on <- on;
    trace.op_id <- !i;
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let check = Trace.span trace "op" inst.run in
    let t1 = now () in
    let w1 = Gc.minor_words () in
    if on then inst.probe ();
    trace.on <- false;
    busy := !busy +. (t1 -. t0);
    push (if on then spanned else plain) (t1 -. t0);
    if !i < w.window then window_words := !window_words +. (w1 -. w0);
    if not (check ()) then incr failed;
    incr i;
    if !i = w.window then window_counts := inst.counts ();
    (* after the exact-repeat window, at busy = k/setup_reps of --seconds *)
    if !i >= w.window
       && List.length !setups < setup_reps
       && !busy >= float_of_int (List.length !setups) /. float_of_int setup_reps *. seconds
    then spare_set_up ();
    if now () -. !last_calibration >= 1.0 then begin
      push cpu (calibrate_cpu ());
      push memory (calibrate_memory ());
      last_calibration := now ()
    end
  done;
  while List.length !setups < setup_reps do
    spare_set_up ()
  done;
  let gc1 = Gc.quick_stat () in
  let ops = !i in
  let errors = inst.finish () in
  let final_counts = inst.counts () in
  inst.close ();
  let alloc = Harness.metric "alloc_mw_per_op" "Mw" (!window_words /. float_of_int w.window /. 1e6) in
  let exact =
    alloc :: List.filter (fun (m : Harness.metric) -> List.mem m.name w.exact) !window_counts
  in
  let errors = errors @ exact_drift ~workload:w.name ~seed ~traced exact in
  let lat = sorted plain in
  let p50 = percentile lat 50.0 in
  Printf.printf "workload %s seed %d: %d ops (%d traced), %.3f s of op time\n" w.name seed ops
    spanned.n !busy;
  Printf.printf "tail_ms is p%g over %d untraced samples\n" w.tail_pct plain.n;
  Printf.printf "host calibration: cpu %.17g ms, memory %.17g ms (medians of %d)\n"
    (1000.0 *. percentile (sorted cpu) 50.0)
    (1000.0 *. percentile (sorted memory) 50.0)
    cpu.n;
  let metrics =
    if not traced then
      Harness.
        [
          metric "p50_ms" "ms" (1000.0 *. p50);
          metric "tail_ms" "ms" (1000.0 *. percentile lat w.tail_pct);
          metric "ops_per_s" "1/s" (float_of_int ops /. !busy);
          alloc;
          metric "peak_rss_mb" "MB" (peak_rss_mb ());
          metric "setup_s" "s" (median !setups);
        ]
    else begin
      let table = Trace.layers trace in
      let per_span f name =
        match Hashtbl.find_opt table name with
        | Some l -> f l /. float_of_int l.Trace.count
        | None -> 0.0
      in
      let ms = per_span (fun l -> 1000.0 *. l.Trace.self_s) in
      let mw = per_span (fun l -> l.Trace.words /. 1e6) in
      (* exact counts over the window, the others over the whole run *)
      let count name =
        let find = List.find_opt (fun (m : Harness.metric) -> m.name = name) in
        match find (if List.mem name w.exact then exact else final_counts) with
        | Some m -> m.value
        | None -> 0.0
      in
      let spec_ms =
        List.fold_left (fun acc n -> acc +. ms n) 0.0 (Array.to_list Cosim_die.span_names)
      in
      let events = count "cosim.events_per_op" in
      mkdir_p out_dir;
      Trace.write_chrome trace
        (Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" w.name seed));
      List.map (fun n -> Harness.metric (ms_name n) "ms" (ms n)) span_layers
      @ List.map (fun n -> Harness.metric (n ^ ".mw") "Mw" (mw n)) words_layers
      @ List.map (fun (n, unit) -> Harness.metric n unit (count n)) count_layers
      @ Harness.
          [
            metric "gc.major_per_op" "count"
              (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections - !spare_majors)
              /. float_of_int ops);
            metric "cosim.ns_per_event" "ns"
              (if events > 0.0 then spec_ms *. 1e6 /. events else 0.0);
            metric "trace.overhead_ms" "ms"
              (1000.0 *. (percentile (sorted spanned) 50.0 -. p50));
          ]
    end
  in
  List.iter prerr_endline errors;
  (ops, !failed, errors = [] && !failed = 0, metrics)

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (m : Harness.metric) ->
            Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} m.name m.value m.unit)
          metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 35.0 and trace = ref 0 in
  let emit = ref false in
  let names = List.map (fun (w : Harness.workload) -> w.name) workloads in
  Arg.parse
    [
      ("--workload", Arg.Symbol (names, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the op sequence (default 1)");
      ("--seconds", Arg.Set_float seconds, "S op time to measure (default 35)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--emit-cosim-reference", Arg.Set emit,
        " print the cosim_die reference results (perfbench/reference.txt)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !emit then Cosim_die.emit_reference ()
  else
    match List.find_opt (fun (w : Harness.workload) -> w.name = !workload) workloads with
    | None ->
      prerr_endline "--workload is required";
      exit 2
    | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "--trace must be 0 or 1";
      exit 2
    | Some w ->
      let attempted, failed, correct, metrics =
        run w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
      in
      print_endline (result_line ~correct ~attempted ~failed metrics)
